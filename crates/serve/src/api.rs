//! Wire-protocol request bodies: strict JSON parsing of `POST
//! /synthesize` and `POST /batch` payloads into typed [`Work`] plus a
//! validated [`simap_core::Config`], and the dual-shape `POST /stg`
//! body (raw `.g` text or a JSON envelope with a `source` field).
//!
//! Parsing mirrors the CLI's strict flag handling: unknown fields,
//! wrong types and invalid knob values are all rejected with a message
//! (the router responds `400`), never silently ignored.

use simap_core::json::{self, Json};
use simap_core::{Config, ConfigBuilder};
use simap_stg::ReachStrategy;

/// How the client wants the response delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Wait for the job and answer with its result.
    Sync,
    /// Answer `202` with a job id immediately; poll `GET /jobs/{id}`.
    Async,
    /// Answer with an NDJSON stream of [`simap_core::FlowEvent`]s as the
    /// flow progresses, ending in the report (synthesize only).
    Stream,
}

/// Where a synthesize job gets its specification.
#[derive(Debug, Clone)]
pub(crate) enum WorkSource {
    /// A named circuit of the embedded Table 1 suite.
    Benchmark(String),
    /// Ad-hoc `.g` source text.
    GSource(String),
}

/// One unit of work for the worker pool.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// One full mapping flow; the response body is byte-identical to
    /// `simap map --json` for the same specification and configuration.
    Synthesize { source: WorkSource, config: Config },
    /// A batch over benchmark names; the response body is byte-identical
    /// to `simap bench run --json`.
    Batch { names: Vec<String>, limits: Vec<usize>, config: Config },
}

/// The canonical identity of one unit of work, for the persistent
/// result cache: a human-auditable key string covering the work
/// description and the full configuration fingerprint
/// ([`Config::digest`]), plus its FNV-1a digest (the cache file
/// address). Two requests get the same fingerprint exactly when the
/// service contract promises them byte-identical responses.
///
/// Ad-hoc `g_source` text is folded in as `length:digest` rather than
/// verbatim, so the key stays one short line; the cache layer still
/// stores and verifies this full canonical string, so a digest collision
/// inside that folding is caught the same way any other collision is.
pub(crate) fn work_fingerprint(work: &Work) -> (u64, String) {
    let canon = match work {
        Work::Synthesize { source, config } => {
            let source = match source {
                WorkSource::Benchmark(name) => format!("bench={name}"),
                WorkSource::GSource(text) => {
                    format!("g_source={}:{:016x}", text.len(), simap_core::fnv1a64(text.as_bytes()))
                }
            };
            format!("synthesize;{source};cfg={:016x}", config.digest())
        }
        Work::Batch { names, limits, config } => format!(
            "batch;names={};limits={limits:?};cfg={:016x}",
            names.join(","),
            config.digest()
        ),
    };
    (simap_core::fnv1a64(canon.as_bytes()), canon)
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        // An absent body means "all defaults".
        return Ok(Json::Object(Vec::new()));
    }
    json::parse(text).map_err(|e| e.to_string())
}

fn expect_str(key: &str, value: &Json) -> Result<String, String> {
    value.as_str().map(str::to_string).ok_or_else(|| format!("field `{key}` must be a string"))
}

fn expect_usize(key: &str, value: &Json) -> Result<usize, String> {
    value.as_usize().ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn expect_bool(key: &str, value: &Json) -> Result<bool, String> {
    value.as_bool().ok_or_else(|| format!("field `{key}` must be a boolean"))
}

/// Applies one shared configuration field to the builder; `Ok(None)`
/// means the key is not a configuration field.
fn apply_config_field(
    builder: ConfigBuilder,
    key: &str,
    value: &Json,
) -> Result<Option<ConfigBuilder>, String> {
    Ok(Some(match key {
        "literal_limit" => builder.literal_limit(expect_usize(key, value)?),
        "or_limit" => builder.or_limit(expect_usize(key, value)?),
        "csc_repair" => builder.repair_csc(expect_bool(key, value)?),
        "verify" => builder.verify(expect_bool(key, value)?),
        "strategy" => {
            let strategy: ReachStrategy = expect_str(key, value)?.parse()?;
            builder.reach_strategy(strategy)
        }
        "materialize_limit" => builder.reach_materialize_limit(expect_usize(key, value)?),
        "memory_budget" => builder.reach_memory_budget(expect_usize(key, value)?),
        "shards" => builder.reach_shards(expect_usize(key, value)?),
        // Scratch placement is an operator decision: clients must not
        // name paths on the server's filesystem. The spill strategy is
        // still available — it uses the server's temp directory.
        "spill_dir" => {
            return Err(
                "field `spill_dir` is not accepted over the API: spill scratch files go to \
                 the server's temp directory"
                    .to_string(),
            )
        }
        // Same reasoning, stronger consequences: a checkpoint directory
        // is written to (and a resume directory read from) the server's
        // filesystem at client-chosen paths, and checkpoints are only
        // meaningful across process lifetimes the client does not own.
        "checkpoint_dir" | "checkpoint_every" | "resume" => {
            return Err(format!(
                "field `{key}` is not accepted over the API: spill checkpointing names paths \
                 on the server's filesystem (run `simap check/map --checkpoint-dir` locally)"
            ))
        }
        _ => return Ok(None),
    }))
}

fn mode_of(asynchronous: bool, stream: bool) -> Result<Mode, String> {
    match (asynchronous, stream) {
        (true, true) => Err("`async` and `stream` are mutually exclusive".to_string()),
        (true, false) => Ok(Mode::Async),
        (false, true) => Ok(Mode::Stream),
        (false, false) => Ok(Mode::Sync),
    }
}

/// Parses a `POST /synthesize` body against the server's base
/// configuration.
pub(crate) fn parse_synthesize(body: &[u8], base: &Config) -> Result<(Work, Mode), String> {
    let doc = parse_body(body)?;
    let members = doc.as_object().ok_or_else(|| "body must be a JSON object".to_string())?;
    let mut builder = base.to_builder();
    let mut source = None;
    let mut asynchronous = false;
    let mut stream = false;
    for (key, value) in members {
        match key.as_str() {
            "bench" => source = Some(WorkSource::Benchmark(expect_str(key, value)?)),
            "g_source" => source = Some(WorkSource::GSource(expect_str(key, value)?)),
            "async" => asynchronous = expect_bool(key, value)?,
            "stream" => stream = expect_bool(key, value)?,
            other => match apply_config_field(builder.clone(), other, value)? {
                Some(updated) => builder = updated,
                None => return Err(format!("unknown field `{other}`")),
            },
        }
    }
    let source = source.ok_or_else(|| "one of `bench` or `g_source` is required".to_string())?;
    if members.iter().filter(|(k, _)| k == "bench" || k == "g_source").count() > 1 {
        return Err("`bench` and `g_source` are mutually exclusive".to_string());
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    Ok((Work::Synthesize { source, config }, mode_of(asynchronous, stream)?))
}

/// Parses a `POST /stg` body against the server's base configuration.
///
/// Two body shapes are accepted:
///
/// * **raw `.g` text** — the file a user would pass to `simap map
///   <file.g>`, posted verbatim. A `.g` spec always opens with a
///   directive, a comment or whitespace, never `{`, so the first
///   non-whitespace byte disambiguates. Runs with the server's base
///   configuration in [`Mode::Sync`].
/// * **a JSON envelope** `{"source": "...", ...}` — the `.g` text in a
///   `source` string plus any of the `/synthesize` configuration knobs
///   and the `async`/`stream` delivery flags.
///
/// Both shapes produce the same [`Work`] as `POST /synthesize` with a
/// `g_source` field: identical [`work_fingerprint`] (the result cache is
/// shared across all three spellings) and a response byte-identical to
/// `simap map <file.g> --json`.
pub(crate) fn parse_stg(body: &[u8], base: &Config) -> Result<(Work, Mode), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body: send raw `.g` text or {\"source\": \"...\"}".to_string());
    }
    if !text.trim_start().starts_with('{') {
        // Raw `.g` text, cached and synthesized exactly as the CLI would.
        let source = WorkSource::GSource(text.to_string());
        return Ok((Work::Synthesize { source, config: base.clone() }, Mode::Sync));
    }
    let doc = json::parse(text)
        .map_err(|e| format!("body opens with `{{` so it must be a JSON envelope, but: {e}"))?;
    let members = doc.as_object().ok_or_else(|| "body must be a JSON object".to_string())?;
    let mut builder = base.to_builder();
    let mut source = None;
    let mut asynchronous = false;
    let mut stream = false;
    for (key, value) in members {
        match key.as_str() {
            "source" => source = Some(expect_str(key, value)?),
            "async" => asynchronous = expect_bool(key, value)?,
            "stream" => stream = expect_bool(key, value)?,
            other => match apply_config_field(builder.clone(), other, value)? {
                Some(updated) => builder = updated,
                None => return Err(format!("unknown field `{other}`")),
            },
        }
    }
    let source = source.ok_or_else(|| "field `source` is required".to_string())?;
    let config = builder.build().map_err(|e| e.to_string())?;
    let work = Work::Synthesize { source: WorkSource::GSource(source), config };
    Ok((work, mode_of(asynchronous, stream)?))
}

/// Parses a `POST /batch` body against the server's base configuration.
pub(crate) fn parse_batch(body: &[u8], base: &Config) -> Result<(Work, Mode), String> {
    let doc = parse_body(body)?;
    let members = doc.as_object().ok_or_else(|| "body must be a JSON object".to_string())?;
    let mut builder = base.to_builder();
    let mut names = Vec::new();
    let mut limits = vec![2];
    let mut asynchronous = false;
    for (key, value) in members {
        match key.as_str() {
            "names" => {
                let items =
                    value.as_array().ok_or_else(|| "field `names` must be an array".to_string())?;
                names = items
                    .iter()
                    .map(|item| expect_str("names", item))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "limits" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| "field `limits` must be an array".to_string())?;
                limits = items
                    .iter()
                    .map(|item| expect_usize("limits", item))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "async" => asynchronous = expect_bool(key, value)?,
            "stream" => return Err("`stream` is not supported for batches".to_string()),
            other => match apply_config_field(builder.clone(), other, value)? {
                Some(updated) => builder = updated,
                None => return Err(format!("unknown field `{other}`")),
            },
        }
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    Ok((Work::Batch { names, limits, config }, mode_of(asynchronous, false)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_defaults_and_knobs() {
        let base = Config::default();
        let (work, mode) = parse_synthesize(br#"{"bench":"half"}"#, &base).unwrap();
        assert_eq!(mode, Mode::Sync);
        match work {
            Work::Synthesize { source: WorkSource::Benchmark(name), config } => {
                assert_eq!(name, "half");
                assert_eq!(config.literal_limit(), 2);
                assert!(config.verify());
            }
            other => panic!("{other:?}"),
        }

        let (work, mode) = parse_synthesize(
            br#"{"g_source":".model x\n.end","literal_limit":3,"verify":false,
                 "strategy":"symbolic","async":true}"#,
            &base,
        )
        .unwrap();
        assert_eq!(mode, Mode::Async);
        match work {
            Work::Synthesize { source: WorkSource::GSource(_), config } => {
                assert_eq!(config.literal_limit(), 3);
                assert!(!config.verify());
                assert_eq!(config.reach_config().strategy, ReachStrategy::Symbolic);
            }
            other => panic!("{other:?}"),
        }

        let (work, _) = parse_synthesize(
            br#"{"bench":"half","strategy":"spill","memory_budget":1048576,"shards":4}"#,
            &base,
        )
        .unwrap();
        match work {
            Work::Synthesize { config, .. } => {
                assert_eq!(config.reach_config().strategy, ReachStrategy::Spill);
                assert_eq!(config.reach_config().memory_budget, 1048576);
                assert_eq!(config.reach_config().shards, 4);
                assert_eq!(config.reach_config().spill_dir, None, "server default placement");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthesize_rejections() {
        let base = Config::default();
        for (body, fragment) in [
            (&br#"{"unknown":1,"bench":"half"}"#[..], "unknown field `unknown`"),
            (br#"{"reach_jobs":2,"bench":"half"}"#, "unknown field `reach_jobs`"),
            (br#"{}"#, "`bench` or `g_source` is required"),
            (br#"{"bench":"a","g_source":"b"}"#, "mutually exclusive"),
            (br#"{"bench":"a","async":true,"stream":true}"#, "mutually exclusive"),
            (br#"{"bench":"a","literal_limit":1}"#, "literal_limit"),
            (br#"{"bench":"a","strategy":"warp"}"#, "unknown reachability strategy"),
            (br#"{"bench":"a","spill_dir":"/etc"}"#, "not accepted over the API"),
            (br#"{"bench":"a","checkpoint_dir":"/etc"}"#, "not accepted over the API"),
            (br#"{"bench":"a","checkpoint_every":4}"#, "not accepted over the API"),
            (br#"{"bench":"a","resume":"/etc"}"#, "not accepted over the API"),
            (br#"{"bench":"a","memory_budget":0}"#, "memory_budget"),
            (br#"{"bench":"a","shards":0}"#, "shards"),
            (br#"{"bench":1}"#, "must be a string"),
            (br#"[1]"#, "must be a JSON object"),
            (b"not json", "invalid JSON"),
        ] {
            let err = parse_synthesize(body, &base).unwrap_err();
            assert!(err.contains(fragment), "{body:?} -> {err}");
        }
    }

    #[test]
    fn batch_fields() {
        let base = Config::default();
        let (work, mode) =
            parse_batch(br#"{"names":["half","hazard"],"limits":[2,3],"verify":false}"#, &base)
                .unwrap();
        assert_eq!(mode, Mode::Sync);
        match work {
            Work::Batch { names, limits, config } => {
                assert_eq!(names, ["half", "hazard"]);
                assert_eq!(limits, [2, 3]);
                assert!(!config.verify());
            }
            other => panic!("{other:?}"),
        }
        // Empty body: all benchmarks at the default limit.
        let (work, _) = parse_batch(b"", &base).unwrap();
        match work {
            Work::Batch { names, limits, .. } => {
                assert!(names.is_empty());
                assert_eq!(limits, [2]);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_batch(br#"{"stream":true}"#, &base).unwrap_err().contains("not supported"));
    }

    #[test]
    fn stg_accepts_raw_g_and_json_envelope() {
        let base = Config::default();
        let raw = ".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.end\n";

        let (work, mode) = parse_stg(raw.as_bytes(), &base).unwrap();
        assert_eq!(mode, Mode::Sync);
        let Work::Synthesize { source: WorkSource::GSource(text), config } = &work else {
            panic!("{work:?}");
        };
        assert_eq!(text, raw, "raw bodies must be forwarded verbatim");
        assert_eq!(config.digest(), base.digest());

        let envelope = format!(
            r#"{{"source":{},"literal_limit":3,"async":true}}"#,
            json::Json::Str(raw.to_string()).emit()
        );
        let (ework, emode) = parse_stg(envelope.as_bytes(), &base).unwrap();
        assert_eq!(emode, Mode::Async);
        let Work::Synthesize { source: WorkSource::GSource(etext), config } = &ework else {
            panic!("{ework:?}");
        };
        assert_eq!(etext, raw);
        assert_eq!(config.literal_limit(), 3);

        // Same source text → same fingerprint for the raw shape, the
        // envelope shape (modulo knobs) and /synthesize's `g_source`.
        let default_envelope = format!(r#"{{"source":{}}}"#, json::Json::Str(raw.into()).emit());
        let via_envelope = parse_stg(default_envelope.as_bytes(), &base).unwrap().0;
        let synth_body = format!(r#"{{"g_source":{}}}"#, json::Json::Str(raw.into()).emit());
        let via_synthesize = parse_synthesize(synth_body.as_bytes(), &base).unwrap().0;
        assert_eq!(work_fingerprint(&work), work_fingerprint(&via_envelope));
        assert_eq!(work_fingerprint(&work), work_fingerprint(&via_synthesize));
    }

    #[test]
    fn stg_rejections() {
        let base = Config::default();
        for (body, fragment) in [
            (&b""[..], "empty body"),
            (b"   \n\t", "empty body"),
            (b"{not json", "JSON envelope"),
            (br#"{"literal_limit":3}"#, "field `source` is required"),
            (br#"{"source":".end","unknown":1}"#, "unknown field `unknown`"),
            (br#"{"source":1}"#, "must be a string"),
            (br#"{"source":".end","spill_dir":"/etc"}"#, "not accepted over the API"),
            (br#"{"source":".end","checkpoint_dir":"/etc"}"#, "not accepted over the API"),
            (br#"{"source":".end","resume":"/etc"}"#, "not accepted over the API"),
            (br#"{"source":".end","async":true,"stream":true}"#, "mutually exclusive"),
            (&[0xff, 0xfe][..], "not UTF-8"),
        ] {
            let err = parse_stg(body, &base).unwrap_err();
            assert!(err.contains(fragment), "{body:?} -> {err}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_requests() {
        let base = Config::default();
        let parse = |body: &[u8]| parse_synthesize(body, &base).unwrap().0;
        let (digest, canon) = work_fingerprint(&parse(br#"{"bench":"half"}"#));
        // Same request, parsed again: identical fingerprint (this is what
        // makes the cache hit across restarts).
        assert_eq!(work_fingerprint(&parse(br#"{"bench":"half"}"#)), (digest, canon.clone()));
        assert!(canon.starts_with("synthesize;bench=half;cfg="), "{canon}");
        // A different benchmark, a different knob, a different endpoint:
        // all distinct keys.
        let mut canons = vec![
            canon,
            work_fingerprint(&parse(br#"{"bench":"hazard"}"#)).1,
            work_fingerprint(&parse(br#"{"bench":"half","literal_limit":3}"#)).1,
            work_fingerprint(&parse(br#"{"g_source":".model x\n.end"}"#)).1,
            work_fingerprint(&parse_batch(br#"{"names":["half"]}"#, &base).unwrap().0).1,
            work_fingerprint(&parse_batch(br#"{"names":["half"],"limits":[3]}"#, &base).unwrap().0)
                .1,
        ];
        canons.sort();
        canons.dedup();
        assert_eq!(canons.len(), 6, "{canons:?}");
    }
}

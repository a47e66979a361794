//! Golden pinning both registered rules' trace lines.

#[test]
fn golden_trace() {
    let expected = "\
RuleTrace analyze: interval_rewrite=changed
RuleTrace lower: finish_build=changed";
    assert_eq!(render(), expected);
}

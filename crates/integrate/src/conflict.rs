//! Conflict resolution for duplicate measurements.
//!
//! Two sources frequently report the same (protein, ligand, assay-type)
//! measurement with different values. The mediator must pick (or
//! combine) one before overlaying, or the tree shows contradictory
//! potencies.

use drugtree_chem::affinity::ActivityRecord;
use rustc_hash::FxHashMap;

/// How to collapse a conflicting group to one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Prefer the earliest-listed source; recency breaks ties.
    SourcePriority(Vec<String>),
    /// Always take the most recent measurement.
    MostRecent,
    /// Keep the group's median value (synthesizing provenance from the
    /// median record).
    Median,
}

/// The identity under which measurements conflict.
fn conflict_key(r: &ActivityRecord) -> (String, String, drugtree_chem::ActivityType) {
    (
        r.protein_accession.clone(),
        r.ligand_id.clone(),
        r.activity_type,
    )
}

/// Statistics from one resolution pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConflictReport {
    /// Input records.
    pub input: usize,
    /// Output records (one per distinct measurement identity).
    pub output: usize,
    /// Groups that actually contained more than one record.
    pub conflicting_groups: usize,
}

/// Collapse duplicates according to the policy. Output order is
/// deterministic (sorted by conflict key).
pub fn resolve_conflicts(
    records: &[ActivityRecord],
    policy: &ConflictPolicy,
) -> (Vec<ActivityRecord>, ConflictReport) {
    let mut groups: FxHashMap<_, Vec<&ActivityRecord>> = FxHashMap::default();
    for r in records {
        groups.entry(conflict_key(r)).or_default().push(r);
    }

    let mut keys: Vec<_> = groups.keys().cloned().collect();
    keys.sort();

    let mut out = Vec::with_capacity(keys.len());
    let mut conflicting = 0;
    for key in keys {
        let group = &groups[&key];
        if group.len() > 1 {
            conflicting += 1;
        }
        out.extend(pick(group, policy));
    }
    let report = ConflictReport {
        input: records.len(),
        output: out.len(),
        conflicting_groups: conflicting,
    };
    (out, report)
}

/// The winning record of one conflict group; `None` only for an empty
/// group, which the grouping step never produces.
fn pick(group: &[&ActivityRecord], policy: &ConflictPolicy) -> Option<ActivityRecord> {
    match policy {
        ConflictPolicy::SourcePriority(order) => {
            let rank = |r: &ActivityRecord| {
                order
                    .iter()
                    .position(|s| s == &r.source)
                    .unwrap_or(order.len())
            };
            group
                .iter()
                .min_by(|a, b| {
                    rank(a)
                        .cmp(&rank(b))
                        .then(b.year.cmp(&a.year))
                        .then(a.value_nm.total_cmp(&b.value_nm))
                })
                .map(|r| (*r).clone())
        }
        ConflictPolicy::MostRecent => group
            .iter()
            .max_by(|a, b| a.year.cmp(&b.year).then(b.value_nm.total_cmp(&a.value_nm)))
            .map(|r| (*r).clone()),
        ConflictPolicy::Median => {
            let mut sorted: Vec<&ActivityRecord> = group.to_vec();
            sorted.sort_by(|a, b| a.value_nm.total_cmp(&b.value_nm));
            sorted.get(sorted.len() / 2).map(|r| (*r).clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_chem::ActivityType;

    fn rec(ligand: &str, value: f64, source: &str, year: u16) -> ActivityRecord {
        ActivityRecord {
            protein_accession: "P1".into(),
            ligand_id: ligand.into(),
            activity_type: ActivityType::Ki,
            value_nm: value,
            source: source.into(),
            year,
        }
    }

    #[test]
    fn no_conflicts_pass_through() {
        let records = vec![rec("L1", 10.0, "a", 2010), rec("L2", 20.0, "a", 2011)];
        let (out, report) = resolve_conflicts(&records, &ConflictPolicy::MostRecent);
        assert_eq!(out.len(), 2);
        assert_eq!(report.conflicting_groups, 0);
        assert_eq!(report.input, 2);
        assert_eq!(report.output, 2);
    }

    #[test]
    fn source_priority_wins() {
        let records = vec![
            rec("L1", 10.0, "bindingdb", 2012),
            rec("L1", 99.0, "curated", 2005),
        ];
        let policy = ConflictPolicy::SourcePriority(vec!["curated".into(), "bindingdb".into()]);
        let (out, report) = resolve_conflicts(&records, &policy);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].source, "curated");
        assert_eq!(report.conflicting_groups, 1);
    }

    #[test]
    fn unknown_sources_rank_last() {
        let records = vec![
            rec("L1", 10.0, "mystery", 2012),
            rec("L1", 20.0, "curated", 2005),
        ];
        let policy = ConflictPolicy::SourcePriority(vec!["curated".into()]);
        let (out, _) = resolve_conflicts(&records, &policy);
        assert_eq!(out[0].source, "curated");
    }

    #[test]
    fn priority_ties_break_by_recency() {
        let records = vec![
            rec("L1", 10.0, "curated", 2008),
            rec("L1", 20.0, "curated", 2012),
        ];
        let policy = ConflictPolicy::SourcePriority(vec!["curated".into()]);
        let (out, _) = resolve_conflicts(&records, &policy);
        assert_eq!(out[0].year, 2012);
    }

    #[test]
    fn most_recent() {
        let records = vec![
            rec("L1", 10.0, "a", 2010),
            rec("L1", 20.0, "b", 2013),
            rec("L1", 30.0, "c", 2011),
        ];
        let (out, _) = resolve_conflicts(&records, &ConflictPolicy::MostRecent);
        assert_eq!(out[0].year, 2013);
    }

    #[test]
    fn median_of_group() {
        let records = vec![
            rec("L1", 100.0, "a", 2010),
            rec("L1", 10.0, "b", 2011),
            rec("L1", 50.0, "c", 2012),
        ];
        let (out, _) = resolve_conflicts(&records, &ConflictPolicy::Median);
        assert_eq!(out[0].value_nm, 50.0);
        // Even group: upper median.
        let records = vec![rec("L1", 10.0, "a", 2010), rec("L1", 30.0, "b", 2011)];
        let (out, _) = resolve_conflicts(&records, &ConflictPolicy::Median);
        assert_eq!(out[0].value_nm, 30.0);
    }

    #[test]
    fn different_assay_types_do_not_conflict() {
        let mut r2 = rec("L1", 20.0, "b", 2011);
        r2.activity_type = ActivityType::Ic50;
        let records = vec![rec("L1", 10.0, "a", 2010), r2];
        let (out, report) = resolve_conflicts(&records, &ConflictPolicy::MostRecent);
        assert_eq!(out.len(), 2);
        assert_eq!(report.conflicting_groups, 0);
    }

    #[test]
    fn deterministic_output_order() {
        let records = vec![
            rec("L2", 1.0, "a", 2010),
            rec("L1", 2.0, "a", 2010),
            rec("L3", 3.0, "a", 2010),
        ];
        let (out, _) = resolve_conflicts(&records, &ConflictPolicy::MostRecent);
        let ids: Vec<&str> = out.iter().map(|r| r.ligand_id.as_str()).collect();
        assert_eq!(ids, ["L1", "L2", "L3"]);
    }
}

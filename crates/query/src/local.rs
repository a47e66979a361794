//! The one local build behind the aggregate view and the columnar
//! mirror.
//!
//! [`LocalBuild::build`] scans one assay source per replica group and
//! widens the typed batches they ship into one activity batch
//! (`ActivityColumns::widen`, the fetch path's constructor): the rows
//! a fetch of the whole tree would return, by the same code. The view
//! is a fold over the batch's columns; the mirror is the batch. A
//! system that asks for both scans once.
//!
//! The build stamps the source epoch it read before its scan
//! ([`Dataset::source_epoch`]): replicas the build did not scan count
//! too, so a drifted replica makes it stale.

use crate::columnar::ActivityColumns;
use crate::dataset::{Dataset, SourceEpoch};
use crate::matview::MaterializedAggregates;
use crate::Result;
use drugtree_sources::source::{FetchRequest, SourceKind};
use std::sync::Arc;
use std::time::Duration;

/// What a local build keeps of its scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The aggregate view; the batch is dropped after the fold.
    View,
    /// The columnar mirror.
    Mirror,
    /// The view, folded first, then the mirror.
    Both,
}

impl Keep {
    /// This and `other` together.
    pub fn with(self, other: Option<Keep>) -> Keep {
        match other {
            Some(other) if other != self => Keep::Both,
            _ => self,
        }
    }
}

/// The view and/or mirror of one scan, with the epoch it was built at.
#[derive(Debug, Clone)]
pub struct LocalBuild {
    /// The per-node aggregate view, when kept.
    pub(crate) view: Option<MaterializedAggregates>,
    /// The columnar activity mirror, when kept.
    pub(crate) mirror: Option<Arc<ActivityColumns>>,
    /// The source epoch read before the scan.
    epoch: SourceEpoch,
    /// Simulated cost of the build scan.
    pub build_cost: Duration,
}

impl LocalBuild {
    /// Scan and widen, then fold the view and/or keep the batch as the
    /// mirror.
    pub fn build(dataset: &Dataset, keep: Keep) -> Result<LocalBuild> {
        let epoch = dataset.source_epoch();
        let (batch, build_cost) = scan(dataset)?;
        let view = match keep {
            Keep::View | Keep::Both => Some(MaterializedAggregates::fold(dataset, &batch)?),
            Keep::Mirror => None,
        };
        let mirror = match keep {
            Keep::Mirror | Keep::Both => Some(Arc::new(batch)),
            Keep::View => None,
        };
        Ok(LocalBuild {
            view,
            mirror,
            epoch,
            build_cost,
        })
    }

    /// True when no assay source has changed between the build and a
    /// query at `epoch`.
    pub fn is_fresh(&self, epoch: SourceEpoch) -> bool {
        self.epoch.holds_at(epoch)
    }
}

/// Every distinct assay source's rows as one activity batch, with the
/// cost of the scan.
pub(crate) fn scan(dataset: &Dataset) -> Result<(ActivityColumns, Duration)> {
    let mut shipped = Vec::new();
    let mut cost = Duration::ZERO;
    for source in dataset.registry.distinct_by_kind(SourceKind::Assay) {
        let resp = source.fetch(&FetchRequest::scan())?;
        cost += resp.cost;
        shipped.push(resp.table);
    }
    let (batch, _) = ActivityColumns::widen(dataset, &shipped)?;
    Ok((batch, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::exec::Executor;
    use crate::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_sources::source::SourceCapabilities;

    #[test]
    fn every_build_charges_its_scan() {
        let d = small_dataset(SourceCapabilities::full());
        for keep in [Keep::View, Keep::Mirror, Keep::Both] {
            let built = LocalBuild::build(&d, keep).unwrap();
            assert!(built.build_cost > Duration::ZERO, "{keep:?}");
            assert_eq!(built.view.is_some(), keep != Keep::Mirror, "{keep:?}");
            assert_eq!(built.mirror.is_some(), keep != Keep::View, "{keep:?}");

            let mut exec = Executor::new(Optimizer::new(OptimizerConfig::full()));
            let before = d.clock.now();
            let charged = exec.build_local(&d, keep).unwrap();
            assert_eq!(charged, built.build_cost, "{keep:?}");
            assert_eq!(d.clock.now().since(before), charged, "{keep:?}");
        }
    }

    #[test]
    fn keeping_adds_up() {
        assert_eq!(Keep::View.with(None), Keep::View);
        assert_eq!(Keep::View.with(Some(Keep::View)), Keep::View);
        assert_eq!(Keep::View.with(Some(Keep::Mirror)), Keep::Both);
        assert_eq!(Keep::Mirror.with(Some(Keep::Both)), Keep::Both);
    }
}

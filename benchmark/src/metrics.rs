//! Collecting measured values against the metric lists of `BENCHMARK.json`.
//! The manifest is the only table of names and units: a value the manifest
//! does not name cannot be recorded, and a run that leaves a named metric
//! unmeasured prints no result.

/// TPC-D query ids by class: each class sum is one end-to-end metric.
/// Scan/select/aggregate over `Item`.
pub const AGG: [usize; 5] = [1, 6, 13, 14, 15];
/// Multi-way join + group.
pub const JOIN: [usize; 7] = [3, 5, 7, 8, 9, 10, 12];
/// Small-table and semijoin queries.
pub const LOOKUP: [usize; 3] = [2, 4, 11];

/// One metric as the manifest declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// One measured value; `n` is the number of samples behind it (1 for a
/// count or a single reading).
pub struct Measured<'m> {
    pub spec: &'m MetricSpec,
    pub value: f64,
    pub n: usize,
}

pub struct MetricSet<'m> {
    specs: &'m [MetricSpec],
    values: Vec<Option<(f64, usize)>>,
}

impl<'m> MetricSet<'m> {
    pub fn new(specs: &'m [MetricSpec]) -> MetricSet<'m> {
        MetricSet { specs, values: vec![None; specs.len()] }
    }

    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        let i = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some((value, n));
    }

    /// The values in manifest order; errors if one is missing or not finite.
    pub fn finish(self) -> Result<Vec<Measured<'m>>, String> {
        self.specs
            .iter()
            .zip(self.values)
            .map(|(spec, v)| match v {
                None => Err(format!("metric {} was not measured", spec.name)),
                Some((value, _)) if !value.is_finite() => {
                    Err(format!("metric {} is not finite ({value})", spec.name))
                }
                Some((value, n)) => Ok(Measured { spec, value, n }),
            })
            .collect()
    }
}

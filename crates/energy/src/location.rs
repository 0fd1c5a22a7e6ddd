//! Datacenter location presets (§V-A: "We select 4 of Google's data center
//! locations and create renewable energy traces for those locations").
//!
//! Latitude and mean cloudiness are the two levers that differentiate the
//! traces; the values below are representative of the real sites'
//! climates (NREL solar-resource maps), which is all the optimizer needs.

use crate::solar::{CloudModel, GreenEnergyTrace, SolarConfig};

/// A datacenter site for green-energy purposes.
#[derive(Debug, Clone)]
pub struct Location {
    /// Human-readable site name.
    pub name: &'static str,
    /// Latitude in degrees.
    pub latitude_deg: f64,
    /// Mean cloud cover in `[0, 1]`.
    pub mean_cloudiness: f64,
}

impl Location {
    /// Synthesize this location's trace for a panel of `panel_watts`,
    /// spanning `days`, starting at `start_hour` local time.
    pub fn trace(
        &self,
        panel_watts: f64,
        days: usize,
        start_hour: usize,
        seed: u64,
    ) -> GreenEnergyTrace {
        let cfg = SolarConfig {
            panel_watts,
            latitude_deg: self.latitude_deg,
            clouds: CloudModel {
                mean: self.mean_cloudiness,
                ..CloudModel::default()
            },
            days,
            start_hour,
        };
        // Mix the site identity into the seed so different locations get
        // independent weather even with the same experiment seed.
        let site_hash = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        GreenEnergyTrace::synthesize(&cfg, seed ^ site_hash)
    }
}

/// The four Google-datacenter sites used in the experiments, ordered from
/// sunniest to cloudiest.
pub fn google_dc_locations() -> [Location; 4] {
    [
        Location {
            name: "mayes-county-ok",
            latitude_deg: 36.3,
            mean_cloudiness: 0.30,
        },
        Location {
            name: "berkeley-county-sc",
            latitude_deg: 33.2,
            mean_cloudiness: 0.40,
        },
        Location {
            name: "council-bluffs-ia",
            latitude_deg: 41.3,
            mean_cloudiness: 0.45,
        },
        Location {
            name: "the-dalles-or",
            latitude_deg: 45.6,
            mean_cloudiness: 0.60,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_locations() {
        let locs = google_dc_locations();
        assert_eq!(locs.len(), 4);
        let mut names: Vec<&str> = locs.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn sunnier_site_yields_more_daily_energy() {
        let locs = google_dc_locations();
        let day = 86_400.0;
        let sunny = locs[0].trace(400.0, 2, 0, 5).energy_joules(0.0, day);
        let cloudy = locs[3].trace(400.0, 2, 0, 5).energy_joules(0.0, day);
        assert!(sunny > cloudy, "sunny {sunny} should beat cloudy {cloudy}");
    }

    #[test]
    fn same_seed_different_sites_different_weather() {
        let locs = google_dc_locations();
        let a = locs[0].trace(400.0, 1, 0, 9);
        let b = locs[1].trace(400.0, 1, 0, 9);
        assert_ne!(a.hourly(), b.hourly());
    }

    #[test]
    fn trace_is_reproducible_per_site() {
        let loc = &google_dc_locations()[2];
        assert_eq!(
            loc.trace(300.0, 1, 6, 4).hourly(),
            loc.trace(300.0, 1, 6, 4).hourly()
        );
    }
}

//! Green-energy estimation and dirty-energy accounting (paper §III-B).
//!
//! The paper predicts per-node renewable supply with the NREL PVWATTS
//! simulator, using the Goiri et al. model
//!
//! ```text
//! GE(t) = p(w(t)) · B(t)
//! ```
//!
//! where `B(t)` is the clear-sky production of the node's solar panel,
//! `w(t)` the cloud cover, and `p` an attenuation factor. PVWATTS itself is
//! a hosted service backed by NREL's proprietary weather database, so this
//! crate substitutes a faithful synthetic equivalent:
//!
//! * [`solar`] — a clear-sky diurnal/latitude model for `B(t)`, an
//!   autocorrelated cloud process for `w(t)`, and the standard
//!   Kasten–Czeplak attenuation `p(w) = 1 − 0.75·w³`, sampled hourly into a
//!   [`GreenEnergyTrace`](solar::GreenEnergyTrace) that can be integrated
//!   at second resolution ("one can rescale it to per second average for
//!   greater precision", §III-B).
//! * [`location`] — presets for four Google datacenter regions with
//!   distinct latitude/cloudiness, mirroring the paper's setup (§V-A).
//! * [`power`] — the node power model from §V-A: `60 W + 95 W × cores`,
//!   giving the paper's 440/345/250/155 W node classes.
//! * [`dirty`] — dirty-energy accounting `g_i(x) = E_i·f_i(x) − Σ_t GE_i(t)`
//!   both in the paper's linear form and in a clamped physical form, plus
//!   the mean-rate reduction `k_i = E_i − ḠE_i` that turns the Pareto model
//!   into a linear program (§III-D).

pub mod dirty;
pub mod location;
pub mod power;
pub mod solar;

pub use dirty::{dirty_energy_joules, DirtyEnergyMode, NodeEnergyProfile};
pub use location::{google_dc_locations, Location};
pub use power::NodePowerModel;
pub use solar::{CloudModel, GreenEnergyTrace, SolarConfig};

//! Discrete-event simulation substrate for the TNIC reproduction.
//!
//! The original TNIC evaluation runs on Alveo U280 FPGAs, 100 Gbps links and
//! SGX/SEV machines. None of that hardware is required here: every hardware
//! component is modelled as a functional unit whose *timing* is drawn from a
//! calibrated latency model and accounted against a virtual clock. This crate
//! provides the shared machinery:
//!
//! * [`time`] — nanosecond-resolution virtual instants and durations.
//! * [`clock`] — a shareable virtual clock.
//! * [`rng`] — a small deterministic PRNG (`SplitMix64`/`xoshiro256**`) so
//!   every experiment is reproducible from a seed.
//! * [`latency`] — latency models (constant, uniform, normal, spiking) used to
//!   emulate device access, TEE world switches and network propagation.
//! * [`event`] — a discrete-event queue for protocol simulations.
//! * [`stats`] — a latency histogram with exact percentiles, used by the
//!   `tnic-obs` metrics registry.
//!
//! # Example
//!
//! ```
//! use tnic_sim::clock::SimClock;
//! use tnic_sim::latency::LatencyModel;
//! use tnic_sim::rng::DetRng;
//! use tnic_sim::time::SimDuration;
//!
//! let clock = SimClock::new();
//! let model = LatencyModel::uniform(SimDuration::from_micros(23), SimDuration::from_micros(23));
//! let mut rng = DetRng::new(42);
//! clock.advance(model.sample(&mut rng));
//! assert_eq!(clock.now().as_micros(), 23);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod latency;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::SimClock;
pub use latency::LatencyModel;
pub use rng::DetRng;
pub use stats::Histogram;
pub use time::{SimDuration, SimInstant};

//! # conga-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the CONGA reproduction: an integer-nanosecond clock
//! ([`SimTime`], [`SimDuration`]), a stable future-event list
//! ([`EventQueue`]), and seeded deterministic randomness ([`SimRng`]).
//!
//! Design notes (following the event-driven style of stacks like smoltcp):
//!
//! * **No async runtime.** Simulation is CPU-bound; a synchronous event loop
//!   is faster, simpler, and trivially deterministic.
//! * **Stable ordering.** Equal-time events fire in scheduling order, so a
//!   run is a pure function of `(code, seed)`.
//! * **One clock type pair.** Absolute instants and spans are distinct types;
//!   the byte→time conversion for link serialization lives in exactly one
//!   place ([`SimDuration::serialization`]).

#![warn(missing_docs)]

mod queue;
mod rng;
mod time;
mod window;

pub use queue::{EventQueue, Key, QueueKind};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use window::conservative_window;

//! # desim — deterministic discrete-event simulation engine
//!
//! A small, allocation-light discrete-event simulation (DES) core used by the
//! GPU machine model ([`gpusim`](https://crates.io/crates/gpusim)) and the
//! communication layers built on top of it.
//!
//! Design goals:
//!
//! * **Determinism.** Every booking is a pure function of its inputs and
//!   the resource's state: a [`Resource`] serves requests FIFO in call
//!   order and a [`MultiResource`] hands each request its earliest-free
//!   server, so two runs that issue the same calls in the same order
//!   produce bit-identical timelines regardless of host parallelism.
//! * **No hidden clock.** All time is explicit [`SimTime`] / [`Dur`]
//!   nanoseconds; nothing reads the wall clock.
//! * **Composability.** The engine does not impose a process abstraction;
//!   higher layers book work directly on [`Resource`] / [`MultiResource`]
//!   to model serialized servers (links, DMA engines) and k-server stations
//!   (SMs executing thread blocks).

#![warn(missing_docs)]

mod record;
mod resource;
mod time;

pub use record::{Counter, Histogram, TimeSeries};
pub use resource::{Interval, MultiResource, Resource};
pub use time::{Dur, SimTime};

//! The network front end: wire protocol + connection server.
//!
//! The paper's prototype is embedded in Shore-MT's threads; this crate is
//! what turns the reproduction into a servable system.  It has two halves:
//!
//! * [`frame`] — the framed binary protocol: length-prefixed, CRC-protected
//!   frames carrying one declarative [`Op`](plp_core::Op) per request and one
//!   [`Response`](plp_core::Response) per reply, matched by request id so a
//!   connection can pipeline many requests.
//! * [`server`] — the connection server: an accept thread plus one thread
//!   per connection.  Each connection thread owns one
//!   [`Session`](plp_core::engine::Session) and runs its connection to
//!   completion: it runs the frames its read buffer holds in arrival order
//!   through [`Session::run_deferred`](plp_core::engine::Session::run_deferred),
//!   then waits once for the log to cover the whole burst and writes every
//!   reply in one `write`.  No thread per request, and no queue between
//!   threads.
//!
//! The byte-level layout, opcode/error-code tables and connection lifecycle
//! are documented in `docs/server.md`; the `error_codes_are_pinned` and
//! frame round-trip tests pin the wire contract.

#![forbid(unsafe_code)]

pub mod frame;
pub mod server;

pub use frame::{read_frame, Frame, OpCode, ReadOutcome};
pub use server::{Server, ServerConfig};

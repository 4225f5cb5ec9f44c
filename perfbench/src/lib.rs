//! Building blocks of the `perfbench` end-to-end registry benchmark (see
//! `README.md` in this directory).

pub mod gen;
pub mod procfs;
pub mod server;
pub mod timed;
pub mod trace;

//! Benchmark harness regenerating every table and figure of the Cloudburst
//! paper's evaluation (§6). Each `figN` module implements one experiment and
//! returns structured rows; the `bin/` targets print them as paper-style
//! tables. Absolute numbers come from a simulator and will not match EC2;
//! the *shapes* (who wins, by what factor, where crossovers fall) are the
//! reproduction target — see EXPERIMENTS.md.

pub mod chaos;
pub mod fig1;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod geo;
pub mod harness;
pub mod parallel;
pub mod recovery;
pub mod skew;

pub use harness::Profile;

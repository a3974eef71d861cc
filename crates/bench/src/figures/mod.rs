//! One module per figure, each with a `print` that writes its tables to
//! stdout; [`FIGURES`] names them.

pub mod ablation_adjust_latency;
pub mod ablation_memory;
pub mod ablation_pairing;
pub mod ablation_seek_model;
pub mod ablation_two_tasks;
pub mod fig3_classification;
pub mod fig4_balance_point;
pub mod fig7_schedulers;
pub mod multiquery_optimizer;
pub mod protocol_trace;
pub mod sec4_optimizer;
pub mod stream_response;
pub mod table_io_rates;

/// Every figure by name, in the paper's order: `figures <name>` calls the
/// function, and `docs/results/<name>.md` holds its output between
/// `<!-- generated: <name> -->` and `<!-- /generated -->`.
pub const FIGURES: [(&str, fn()); 13] = [
    ("fig3_classification", fig3_classification::print),
    ("fig4_balance_point", fig4_balance_point::print),
    ("protocol_trace", protocol_trace::print),
    ("table_io_rates", table_io_rates::print),
    ("fig7_schedulers", fig7_schedulers::print),
    ("sec4_optimizer", sec4_optimizer::print),
    ("multiquery_optimizer", multiquery_optimizer::print),
    ("stream_response", stream_response::print),
    ("ablation_pairing", ablation_pairing::print),
    ("ablation_seek_model", ablation_seek_model::print),
    ("ablation_adjust_latency", ablation_adjust_latency::print),
    ("ablation_two_tasks", ablation_two_tasks::print),
    ("ablation_memory", ablation_memory::print),
];

/// The figure named `name`.
pub fn figure(name: &str) -> Option<fn()> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, print)| print)
}

//! The five workloads. Each driver calls only the sans-io / poll
//! surface of the stack (`selfcheck.sh` greps for the blocking twins).

pub mod bulk_xfer;
pub mod establish_storm;
pub mod gram_submit;
pub mod ogsa_request;
pub mod vo_flows;

/// Workload names, in the order they run and print.
pub const NAMES: [&str; 5] = [
    "establish_storm",
    "vo_flows",
    "ogsa_request",
    "gram_submit",
    "bulk_xfer",
];

/// Evaluate `$body` with `$W` naming the workload type called `$name`
/// (one of [`NAMES`]; anything else is a bug in the caller's validation).
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {{
        use $crate::harness::Workload as _;
        use $crate::workloads::{bulk_xfer, establish_storm, gram_submit, ogsa_request, vo_flows};
        match $name {
            establish_storm::EstablishStorm::NAME => {
                type $W = establish_storm::EstablishStorm;
                $body
            }
            vo_flows::VoFlows::NAME => {
                type $W = vo_flows::VoFlows;
                $body
            }
            ogsa_request::OgsaRequest::NAME => {
                type $W = ogsa_request::OgsaRequest;
                $body
            }
            gram_submit::GramSubmit::NAME => {
                type $W = gram_submit::GramSubmit;
                $body
            }
            bulk_xfer::BulkXfer::NAME => {
                type $W = bulk_xfer::BulkXfer;
                $body
            }
            other => unreachable!("workload {other} was validated"),
        }
    }};
}

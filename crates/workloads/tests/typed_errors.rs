//! Every `OffloadError` variant is surfaced by a driver in
//! `src/drivers.rs`, which asserts the variant on the rank that sees it.
//!
//! [`surface`] matches the enum with no wildcard arm, so a new variant
//! does not build until it names the driver that surfaces it; and a
//! construction site that builds the wrong variant fails that driver's
//! run, because the rank's assertion panics.

use offload::{FaultPlan, HealthConfig, OffloadError, TenantSpec};
use simnet::{Report, SimError};
use workloads::{
    drive_brownout, drive_ctrl_undeliverable, drive_data_integrity, drive_deadline,
    drive_group_abandon, drive_quota_retry, CheckRun,
};

/// Run the driver that surfaces `e`, under the fault plan or roster it
/// needs.
fn surface(e: &OffloadError) -> Result<Report, SimError> {
    let mut run = CheckRun::baseline(7);
    match e {
        OffloadError::CtrlUndeliverable { .. } => {
            run.cfg.fault = FaultPlan {
                drop_pm: 1000,
                ..FaultPlan::none()
            };
            drive_ctrl_undeliverable(&run, 4096)
        }
        OffloadError::DataIntegrity { .. } => {
            run.move_bytes = true;
            run.cfg.fault = FaultPlan {
                data_drop_pm: 1000,
                ..FaultPlan::none()
            };
            drive_data_integrity(&run, 4096)
        }
        OffloadError::DeadlineExceeded { .. } | OffloadError::Cancelled { .. } => {
            drive_deadline(&run, 1024)
        }
        OffloadError::GroupFailed { .. } => {
            run.cfg.fault = FaultPlan {
                drop_group_packets: true,
                ..FaultPlan::none()
            };
            drive_group_abandon(&run, 1024)
        }
        OffloadError::QuotaExceeded { .. } => {
            run.cfg = run.cfg.clone().with_tenants(vec![
                TenantSpec::inherit(),
                TenantSpec::inherit().with_hard_quota(3),
            ]);
            drive_quota_retry(&run, 1024)
        }
        OffloadError::RetryBudgetExhausted { .. } => {
            run.move_bytes = true;
            run.cfg = run
                .cfg
                .clone()
                .with_fault(FaultPlan {
                    data_drop_pm: 1000,
                    ..FaultPlan::none()
                })
                .with_health(HealthConfig::armed());
            drive_brownout(&run, 4096)
        }
    }
}

#[test]
fn every_variant_surfaces_from_its_driver() {
    let every = [
        OffloadError::CtrlUndeliverable {
            msg_id: 0,
            attempts: 0,
        },
        OffloadError::DataIntegrity {
            msg_id: 0,
            attempts: 0,
        },
        OffloadError::DeadlineExceeded { msg_id: 0 },
        OffloadError::Cancelled { msg_id: 0 },
        OffloadError::GroupFailed { req_id: 0, gen: 0 },
        OffloadError::QuotaExceeded {
            tenant: 0,
            msg_id: 0,
        },
        OffloadError::RetryBudgetExhausted {
            msg_id: 0,
            attempts: 0,
        },
    ];
    for e in &every {
        match surface(e) {
            Ok(_) => {}
            // A dark ctrl plane also swallows the proxies' shutdown
            // notices: the hosts escape with the typed error and only the
            // proxies stay blocked.
            Err(SimError::Deadlock { blocked, .. })
                if matches!(e, OffloadError::CtrlUndeliverable { .. })
                    && blocked.iter().all(|(name, _)| name.starts_with("proxy")) => {}
            Err(err) => panic!("the driver surfacing {e:?} failed: {err}"),
        }
    }
}

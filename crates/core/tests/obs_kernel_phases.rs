//! The kernel phase timers advance while pricing — compiled only under the
//! `obs` feature, which is also the only build in which the engine scopes
//! exist at all.  Dense-routed pricings (`T ≤ T*`) count as one base case.
#![cfg(feature = "obs")]

use amopt_core::bopm::{fast, BopmModel};
use amopt_core::engine::dense::T_STAR_BOPM_CALL;
use amopt_core::{EngineConfig, OptionParams};
use amopt_obs::kernel::{self, KernelPhase, KERNEL_PHASES};

#[test]
fn pricing_drives_all_three_phase_timers() {
    let cfg = EngineConfig::default();

    // At or below T* the public pricer runs the dense kernel: the whole
    // problem is one base case, so that timer — and only that one — moves.
    kernel::reset();
    let shallow = BopmModel::new(OptionParams::paper_defaults(), 252).unwrap();
    assert!(shallow.steps() <= T_STAR_BOPM_CALL);
    let price = fast::price_american_call(&shallow, &cfg);
    assert!(price.is_finite() && price > 0.0);
    let snap = kernel::snapshot();
    assert_eq!(snap[KernelPhase::BaseCase as usize].calls, 1, "{snap:?}");
    assert!(snap[KernelPhase::BaseCase as usize].nanos > 0, "{snap:?}");
    assert_eq!(snap[KernelPhase::FftPass as usize].calls, 0, "{snap:?}");
    assert_eq!(snap[KernelPhase::BoundaryWindow as usize].calls, 0, "{snap:?}");

    kernel::reset();
    let model = BopmModel::new(OptionParams::paper_defaults(), 4096).unwrap();
    let price = fast::price_american_call_trapezoid(&model, &cfg);
    assert!(price.is_finite() && price > 0.0);

    let snap = kernel::snapshot();
    for phase in KERNEL_PHASES {
        let s = snap[phase as usize];
        assert!(s.calls > 0, "phase {} never entered during a 4096-step pricing", phase.name());
    }
    // The FFT bulk dominates a deep pricing; sanity-check the timer actually
    // accumulated wall time rather than just call counts.
    assert!(snap[KernelPhase::FftPass as usize].nanos > 0);

    let mut text = String::new();
    kernel::render_into(&mut text);
    assert!(text.contains("amopt_kernel_fft_pass_calls_total"), "{text}");
    assert!(text.contains("amopt_kernel_boundary_window_calls_total"), "{text}");
    assert!(text.contains("amopt_kernel_base_case_calls_total"), "{text}");
}

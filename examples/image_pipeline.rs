//! Image/video processing through approximate communication — the class of
//! workload the paper's introduction motivates (and Figure 17 demonstrates).
//!
//! Tracks body-part blobs across frames whose pixel data crosses an FP-VAXX
//! link, writes precise/approximate PGM frames side by side, and runs an
//! x264-style DCT transform on approximated residuals, reporting PSNR. Also
//! demonstrates the §7 window-based error budget.
//!
//! ```sh
//! cargo run --release --example image_pipeline [output-dir]
//! ```

use approx_noc::apps::bodytrack::{frame_to_pgm, Bodytrack};
use approx_noc::apps::kernel::evaluate;
use approx_noc::apps::transport::{ApproxTransport, BlockTransport};
use approx_noc::apps::x264::X264;
use approx_noc::compression::fp::{FpDecoder, FpEncoder};
use approx_noc::core::metrics::psnr;
use approx_noc::core::threshold::ErrorThreshold;
use approx_noc::core::window::WindowBudget;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/image_pipeline".into());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let threshold = ErrorThreshold::from_percent(10).expect("10% is valid");

    // --- bodytrack (Figure 17) ------------------------------------------
    let tracker = Bodytrack::new(64, 3, 12, 9);
    let mut transport = ApproxTransport::fp_vaxx(threshold);
    let (_, _, vector_diff) = evaluate(&tracker, &mut transport);
    println!(
        "bodytrack output-vector difference at 10%: {:.4}% (paper: 2.4%)",
        vector_diff * 100.0
    );
    let (frames, _) = tracker.render();
    let frame = &frames[frames.len() / 2];
    let mut t2 = ApproxTransport::fp_vaxx(threshold);
    let approx_frame = t2.transmit_f32(frame);
    let p_path = format!("{out_dir}/precise.pgm");
    let a_path = format!("{out_dir}/approx.pgm");
    std::fs::write(&p_path, frame_to_pgm(frame, tracker.size)).expect("write precise");
    std::fs::write(&a_path, frame_to_pgm(&approx_frame, tracker.size)).expect("write approx");
    let frame_f64: Vec<f64> = frame.iter().map(|p| *p as f64).collect();
    let approx_f64: Vec<f64> = approx_frame.iter().map(|p| *p as f64).collect();
    println!(
        "frame PSNR precise-vs-approx: {:.1} dB  ({p_path}, {a_path})",
        psnr(&frame_f64, &approx_f64, 255.0)
    );

    // --- x264 transform coding -------------------------------------------
    let codec = X264::new(64, 3);
    let mut transport = ApproxTransport::fp_vaxx(threshold);
    let (precise, approx, rel_rmse) = evaluate(&codec, &mut transport);
    println!(
        "x264 reconstruction PSNR: precise-pipeline vs approximate-input {:.1} dB (rel. RMSE {:.3})",
        psnr(&precise, &approx, 255.0),
        rel_rmse
    );

    // --- window-based error budget (§7 future work) ----------------------
    // Per-frame error budgets suit video: pool the tolerance over a window.
    let plain = ApproxTransport::fp_vaxx(threshold);
    drop(plain);
    let mut windowed = ApproxTransport::from_codecs(
        Box::new(FpEncoder::fp_vaxx_windowed(WindowBudget::new(10))),
        Box::new(FpDecoder::new()),
    );
    let (_, _, windowed_diff) = evaluate(&tracker, &mut windowed);
    println!(
        "bodytrack with a 16-word window budget: {:.4}% vector difference (more matches, same average error)",
        windowed_diff * 100.0
    );
}

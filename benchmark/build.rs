//! Emits `has_event_driven` when `PeerReviewConfig` still declares the
//! `event_driven` field. ROADMAP 3A plans to make the sparse drain the only
//! mode and delete the knob; the benchmark has to name it until then
//! (n = 1000 is unusable dense) and must keep compiling afterwards.

use std::path::Path;

fn main() {
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/peerreview/src/system.rs");
    println!("cargo:rerun-if-changed={}", source.display());
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-check-cfg=cfg(has_event_driven)");
    // A missing file is left for the path dependency to report.
    let text = std::fs::read_to_string(&source).unwrap_or_default();
    if declares_field(&text, "PeerReviewConfig", "event_driven") {
        println!("cargo:rustc-cfg=has_event_driven");
    }
}

/// Whether `pub struct <name> { … }` in `text` has a `pub <field>:` line.
fn declares_field(text: &str, name: &str, field: &str) -> bool {
    let Some(start) = text.find(&format!("pub struct {name} {{")) else {
        return false;
    };
    let body = &text[start..];
    let end = body.find("\n}").unwrap_or(body.len());
    body[..end]
        .lines()
        .any(|line| line.trim_start().starts_with(&format!("pub {field}:")))
}

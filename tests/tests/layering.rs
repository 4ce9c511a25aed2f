//! The workspace's layering, read from the manifests. `urllc-core` is the
//! closed forms over the simulation substrate (`sim`) and the numerology
//! (`phy`), and depends on no crate it cross-checks; `sim` itself is the
//! bottom of the stack and depends on nothing. A new `[dependencies]` entry
//! in either manifest fails here before it can let the model call the
//! simulator's own code, or put a crate under the substrate.

/// The crate names under a manifest's `[dependencies]` table, sorted.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut deps: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split(['.', '=', ' ']).next().unwrap_or(line))
        .collect();
    deps.sort_unstable();
    deps
}

#[test]
fn core_depends_on_sim_and_phy_only() {
    let deps = dependencies(include_str!("../../crates/core/Cargo.toml"));
    assert_eq!(deps, ["phy", "sim"], "urllc-core may depend on sim and phy only");
}

#[test]
fn sim_has_no_dependencies() {
    let deps = dependencies(include_str!("../../crates/sim/Cargo.toml"));
    assert!(deps.is_empty(), "urllc-sim may depend on no crate, found {deps:?}");
}

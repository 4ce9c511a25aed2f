//! The model crate's layering: `urllc-core` is the closed forms over the
//! simulation substrate (`sim`) and the numerology (`phy`), and depends on
//! no crate it cross-checks. A new `[dependencies]` entry in
//! `crates/core/Cargo.toml` fails here before it can let the model call
//! the simulator's own code.

#[test]
fn core_depends_on_sim_and_phy_only() {
    let manifest = include_str!("../../crates/core/Cargo.toml");
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
    assert_eq!(deps, ["phy", "sim"], "urllc-core may depend on sim and phy only");
}

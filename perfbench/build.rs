//! Records the build settings that change speed without changing code,
//! so every result can name the profile and flags it was measured with.

fn main() {
    for (var, key) in [
        ("PROFILE", "PERFBENCH_PROFILE"),
        ("OPT_LEVEL", "PERFBENCH_OPT_LEVEL"),
        ("CARGO_ENCODED_RUSTFLAGS", "PERFBENCH_RUSTFLAGS"),
    ] {
        let value = std::env::var(var).unwrap_or_default().replace('\x1f', " ");
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}

//! The standalone `.est` files under `specs/`, which the `protocols`
//! crate embeds as its sources, must all build.

fn read_spec(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");
    std::fs::read_to_string(format!("{}/{}.est", path, name))
        .unwrap_or_else(|e| panic!("specs/{}.est unreadable: {}", name, e))
}

#[test]
fn all_spec_files_generate_analyzers() {
    for name in ["ack", "tp0", "lapd", "abp"] {
        let src = read_spec(name);
        tango::Tango::generate(&src)
            .unwrap_or_else(|e| panic!("specs/{}.est failed to build: {}", name, e));
    }
}

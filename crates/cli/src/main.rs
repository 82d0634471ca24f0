//! The `vex` binary: thin shim over [`vex_cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match vex_cli::parse_args(args.iter().map(String::as_str)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}\n\n{}", vex_cli::USAGE);
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match vex_cli::run(&parsed, &mut stdout) {
        Ok(code) => {
            drop(stdout);
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

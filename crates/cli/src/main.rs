//! `edgellm` — the Edge-LLM reproduction's command-line interface. Exits
//! 2 on a usage error, 1 when the command fails while running.

use edge_llm_cli::{parse_args, run, CliError, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ran = parse_args(&args)
        .and_then(|(command, runtime)| run(&command, &runtime, &mut std::io::stdout()));
    match ran {
        Ok(()) => {}
        Err(e @ CliError::Usage(_)) => {
            eprintln!("{e}\n\n{USAGE}");
            std::process::exit(2);
        }
        Err(e @ CliError::Run(_)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

//! The sweep worker process.  With no arguments it serves the
//! coordinator/worker wire protocol on stdin/stdout until told `done`
//! (spawned by the sweep coordinator; of no use interactively).  With
//! `--listen <addr>` it binds a TCP socket, prints `listening <addr>`
//! (resolved port included, so `:0` is scriptable), and serves
//! coordinator connections concurrently, one thread each — the fleet
//! member behind `WorkerLaunch::Tcp` and `sweep serve`.  With `--join`
//! it dials a daemon's `--register-listen` address instead, reconnecting
//! under bounded backoff whenever the daemon goes away.
//!
//! `--token <T>` (default: the `SWEEP_TOKEN` environment variable)
//! arms the shared-token handshake; connections whose peer presents a
//! different token are rejected before any shard is accepted.

fn main() {
    // A typo'd SWEEP_CHAOS must kill the process at startup, not
    // silently soak nothing.
    if let Err(e) = sweep::Chaos::from_env() {
        eprintln!("sweep_worker: malformed {}: {e}", sweep::CHAOS_ENV);
        std::process::exit(2);
    }

    let mut mode: Option<(&'static str, String)> = None;
    let mut token = sweep::token_from_env();
    let mut args = std::env::args().skip(1);
    let code = loop {
        match args.next().as_deref() {
            None => break None,
            Some("--listen") => match args.next() {
                Some(addr) => mode = Some(("listen", addr)),
                None => break Some("--listen needs an address"),
            },
            Some("--join") => match args.next() {
                Some(addr) => mode = Some(("join", addr)),
                None => break Some("--join needs an address"),
            },
            Some("--token") => match args.next() {
                Some(t) => token = Some(t).filter(|t| !t.is_empty()),
                None => break Some("--token needs a value"),
            },
            Some(other) => {
                eprintln!("sweep_worker: unknown argument `{other}`");
                break Some("");
            }
        }
    };
    if let Some(msg) = code {
        if !msg.is_empty() {
            eprintln!("sweep_worker: {msg}");
        }
        eprintln!("usage: sweep_worker [--listen <addr> | --join <addr>] [--token <token>]");
        std::process::exit(2);
    }
    let code = match mode {
        None => sweep::worker::run_stdio(),
        Some(("listen", addr)) => sweep::worker::run_listener(&addr, token),
        Some((_, addr)) => sweep::worker::run_joiner(&addr, token),
    };
    std::process::exit(code);
}

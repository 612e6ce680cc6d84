//! Debugging scenario: trace a real multithreaded bank workload and use the
//! optimal mixed vector clock to find atomicity-violation candidates — pairs
//! of causally concurrent operations on accounts that are supposed to change
//! together.
//!
//! Run with `cargo run --example debug_race`.

#![allow(clippy::print_stdout, reason = "an example reports on stdout")]

use std::thread;

use mixed_vector_clock::prelude::*;

fn main() {
    let session = TraceSession::new();

    // Two accounts whose balances must always sum to 1000, plus an audit log.
    let account_a = session.shared_object("account-a", 500i64);
    let account_b = session.shared_object("account-b", 500i64);
    let audit_log = session.shared_object("audit-log", Vec::<String>::new());

    let mut workers = Vec::new();

    // Transfer threads move money from A to B (two locked steps — not atomic
    // as a pair, which is exactly the bug class we want to surface).
    for i in 0..2 {
        let handle = session.register_thread(&format!("transfer-{i}"));
        let a = account_a.clone();
        let b = account_b.clone();
        workers.push(thread::spawn(move || {
            for _ in 0..20 {
                a.write(&handle, |balance| *balance -= 10);
                b.write(&handle, |balance| *balance += 10);
            }
        }));
    }

    // The auditor reads both balances and records the sum.
    let auditor = session.register_thread("auditor");
    {
        let a = account_a.clone();
        let b = account_b.clone();
        let log = audit_log.clone();
        workers.push(thread::spawn(move || {
            for _ in 0..10 {
                let left = a.read(&auditor, |balance| *balance);
                let right = b.read(&auditor, |balance| *balance);
                log.write(&auditor, |entries| {
                    entries.push(format!("sum = {}", left + right))
                });
            }
        }));
    }

    for worker in workers {
        worker.join().expect("worker thread panicked");
    }

    // Snapshot of the final balances.
    let probe = session.register_thread("probe");
    let total = account_a.read(&probe, |a| *a) + account_b.read(&probe, |b| *b);
    println!("final balance total: {total} (invariant: 1000)");

    // Turn the recorded execution into a computation and analyse it.
    let computation = session.into_computation();
    println!(
        "recorded {} operations by {} threads on {} objects",
        computation.len(),
        computation.thread_count(),
        computation.object_count()
    );

    let report = ClockSizeReport::analyze(&computation);
    println!("{report}");

    // Accounts A (object 0) and B (object 1) form one invariant group.
    let analyzer = ConflictAnalyzer::with_groups([vec![ObjectId(0), ObjectId(1)]]);
    let conflicts = analyzer.analyze(&computation);
    println!(
        "found {} concurrent conflicting pairs across the account group",
        conflicts.len()
    );
    for pair in conflicts.iter().take(5) {
        let first = computation.event(pair.first);
        let second = computation.event(pair.second);
        println!(
            "  {} ({} on {}) is concurrent with {} ({} on {})",
            first.id, first.kind, first.object, second.id, second.kind, second.object
        );
    }
    if conflicts.len() > 5 {
        println!("  ... and {} more", conflicts.len() - 5);
    }
    println!(
        "each pair is a window where the auditor could observe a broken invariant\n\
         (the per-account operations are serialised, but the A+B pair is not atomic)"
    );
}

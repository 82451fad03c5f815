// BAD: the early return leaks the constructed sink — the client behind it
// waits forever.
pub fn leak_on_early_exit(tx: Sender, shutting_down: bool) {
    let reply = CompletionSink::new(tx, 0);
    if shutting_down {
        return;
    }
    reply.complete(product());
}

// BAD: the sink is moved into the catch_unwind closure — an unwinding
// backend drops it unresolved (the exact bug PR 6's containment exists to
// prevent).
pub fn sink_under_unwind(job: Job) {
    let _ = catch_unwind(AssertUnwindSafe(|| job.reply.complete(product())));
}

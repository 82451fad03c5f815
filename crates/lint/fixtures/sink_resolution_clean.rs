// CLEAN: the sink reaches a send on every path before scope exit.
pub fn resolve_on_both_paths(tx: Sender, shutting_down: bool) {
    let reply = CompletionSink::new(tx, 0);
    if shutting_down {
        reply.complete(closed());
        return;
    }
    reply.complete(product());
}

// CLEAN: the minted-sink pattern — the sink is handed to the queue (the
// `?` propagates only after it is out of our hands), its cancel handle
// stays with the caller.
pub fn submit(queue: &Queue, mint: &Mint, request: Request) -> Result<Handle, SubmitError> {
    let reply = mint.sink(7);
    let handle = reply.cancel_handle();
    queue.enqueue(request, reply)?;
    Ok(handle)
}

// CLEAN: only the backend runs contained; the sink is resolved outside.
pub fn contain_backend_only(job: Job, backend: &Backend) {
    let outcome = catch_unwind(AssertUnwindSafe(|| backend.flush()));
    job.reply.complete(outcome);
}

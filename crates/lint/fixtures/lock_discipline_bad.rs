// BAD: the pool guard's live range spans the transform call — every other
// worker serializes on this card's product (exactly what PR 2's
// checkout-pool design forbids).
pub fn held_across_transform(pool: &Mutex<Vec<Scratch>>, plan: &Plan, data: &mut [u64]) {
    let mut guard = pool.lock().unwrap();
    plan.forward_into(data);
    guard.push(Scratch::default());
}

// BAD: same shape through the poison-recovery helper.
pub fn held_across_multiply(state: &Mutex<State>, engine: &Engine, jobs: &[Job]) {
    let state = lock_or_recover(state);
    engine.multiply_batch(jobs);
    drop(state);
}

// BAD: the production engine's own entry point — `Radix2kPlan` transforms
// in place, and a guard held across it serializes every card just the same.
pub fn held_across_in_place_transform(pool: &Mutex<Vec<Scratch>>, plan: &Radix2kPlan, data: &mut [u64]) {
    let guard = pool.lock().unwrap();
    plan.forward_in_place(data);
    drop(guard);
}

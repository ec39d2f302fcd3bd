//! Allocation counts on the check path. The type store's fast paths
//! allocate nothing: applying a substitution to a ground id, unifying
//! two equal ids, and asking a type's size are O(1) id operations, with
//! no tree rebuilt and no table grown. And compiling a request of each
//! perfbench workload stays within a fixed number of allocations, so a
//! stage that starts copying trees again shows. A counting global
//! allocator pins both; it counts only this thread's allocations, so
//! the harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use typeclasses::types::{unify, Interner, Subst, TyVar, Type};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn ground_apply_equal_unify_and_size_allocate_nothing() {
    let mut types = Interner::new();
    let mut subst = Subst::new();
    // `List Int -> (Int -> Bool) -> List Int`, and a solved variable.
    let tree = Type::fun(
        Type::list(Type::int()),
        Type::fun(
            Type::fun(Type::int(), Type::bool()),
            Type::list(Type::int()),
        ),
    );
    let ground = types.intern(&tree);
    let size = tree.size();
    let open = types.intern(&Type::fun(Type::Var(TyVar(0)), Type::Var(TyVar(1))));
    let int = types.intern(&Type::int());
    subst.bind(TyVar(0), int);
    // Warm the scratch stacks once.
    unify(&mut types, &mut subst, ground, ground).unwrap();
    unify(&mut types, &mut subst, open, open).unwrap();

    let n = allocations(|| {
        for _ in 0..1_000 {
            assert_eq!(subst.apply(&mut types, ground), ground);
            unify(&mut types, &mut subst, ground, ground).unwrap();
            unify(&mut types, &mut subst, open, open).unwrap();
            assert_eq!(types.size(ground), size);
        }
    });
    assert_eq!(n, 0, "{n} allocations");
}

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

/// Mean allocations to compile one of 20 requests of `workload` at
/// seed 1, as the server compiles them: `check` requests with lints,
/// `run` requests without (evaluation is not counted).
fn allocations_per_request(workload: gen::Workload) -> u64 {
    let requests = gen::requests(workload, 1, "main", 20);
    let opts = typeclasses::Options::default();
    let compile = |r: &gen::Request| {
        let check = if r.is_check() {
            typeclasses::lint_source(&r.program, &opts)
        } else {
            typeclasses::check_source(&r.program, &opts)
        };
        std::hint::black_box(check);
    };
    // The first compile builds the process-wide prelude snapshot.
    compile(&requests[0]);
    allocations(|| requests.iter().for_each(compile)) / requests.len() as u64
}

/// Allocations per request stay within this tree's measured counts plus
/// 5%: small_run 186, module_check 14,764, eval_run 405. With an
/// idempotent substitution (an occurrence list per variable, a set of
/// variables per bind) and a scheme tree per binding built on every
/// request, the same requests made 204, 15,751 and 459; before the
/// resolver and context reduction ran on type ids, conversion rewrote
/// core in place, and sharing and lint walked core without a list per
/// node, 318, 33,414 and 811.
#[test]
fn compiling_a_request_stays_within_its_allocation_bound() {
    for (workload, bound) in [
        (gen::Workload::SmallRun, 195),
        (gen::Workload::ModuleCheck, 15_502),
        (gen::Workload::EvalRun, 425),
    ] {
        let n = allocations_per_request(workload);
        assert!(
            n <= bound,
            "{}: {n} allocations per request, bound {bound}",
            workload.name()
        );
    }
}

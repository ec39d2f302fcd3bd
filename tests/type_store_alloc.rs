//! The type store's fast paths allocate nothing: applying a
//! substitution to a ground id, unifying two equal ids, and asking a
//! type's size are O(1) id operations, with no tree rebuilt and no
//! table grown. A counting global allocator pins that; it counts only
//! this thread's allocations, so the harness's own threads cannot
//! disturb the count.

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
    subst.bind(&mut types, TyVar(0), int).unwrap();
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

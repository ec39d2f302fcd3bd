//! End-to-end happy-path tests: source text in, rendered value out,
//! through lexing, parsing, class-env construction, elaboration,
//! dictionary conversion, and budgeted lazy evaluation.

use typeclasses::{check_source, run_source, Options, Outcome};

fn value(src: &str) -> String {
    let r = run_source(src, &Options::default());
    match r.outcome {
        Outcome::Value(v) => v,
        other => panic!(
            "expected a value, got {other:?}\n{}",
            r.check.render_diagnostics()
        ),
    }
}

#[test]
fn member_example_from_the_paper() {
    assert_eq!(value("main = member 3 (enumFromTo 1 5);"), "True");
    assert_eq!(value("main = member 9 (enumFromTo 1 5);"), "False");
}

#[test]
fn member_scheme_matches_the_paper() {
    let c = check_source("", &Options::default());
    assert!(c.ok(), "{}", c.render_diagnostics());
    assert_eq!(
        c.scheme("member").as_deref(),
        Some("Eq a => a -> List a -> Bool")
    );
    assert_eq!(
        c.scheme("map").as_deref(),
        Some("(a -> b) -> List a -> List b")
    );
    // A program's own schemes are built from its type store, which the
    // law harness borrows and hands back.
    let src =
        "data C = R | G deriving (Eq);\nisIn x xs = member x xs;\nmain = isIn R (cons G nil);";
    for check_laws in [false, true] {
        let opts = Options {
            check_laws,
            ..Options::default()
        };
        let c = check_source(src, &opts);
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert_eq!(
            c.scheme("isIn").as_deref(),
            Some("Eq a => a -> List a -> Bool"),
            "check_laws: {check_laws}"
        );
    }
}

#[test]
fn arithmetic_through_num_dictionary() {
    assert_eq!(
        value("main = sum (map (\\x -> mul x x) (enumFromTo 1 10));"),
        "385"
    );
}

#[test]
fn ord_methods_and_superclass() {
    assert_eq!(value("main = max2 3 9;"), "9");
    assert_eq!(value("main = min2 3 9;"), "3");
    // `f`'s body needs Eq, deduced from the Ord assumption through the
    // superclass slot of the dictionary.
    assert_eq!(
        value(
            "f :: Ord a => a -> a -> Bool;\n\
             f x y = and (lte x y) (eq x y);\n\
             main = f 2 2;"
        ),
        "True"
    );
}

#[test]
fn user_defined_class_and_instances() {
    assert_eq!(
        value(
            "class Size a where { size :: a -> Int; };\n\
             instance Size Bool where { size = \\b -> 1; };\n\
             instance Size a => Size (List a) where {\n\
               size = \\xs -> if null xs then 0\n\
                      else add (size (head xs)) (size (tail xs));\n\
             };\n\
             main = size (cons True (cons False nil));"
        ),
        "2"
    );
}

#[test]
fn laziness_is_observable() {
    assert_eq!(
        value("from n = cons n (from (add n 1));\nmain = take 4 (from 1);"),
        "[1, 2, 3, 4]"
    );
    // `head` must not force the diverging tail.
    assert_eq!(
        value("loop x = loop x;\nmain = head (cons 42 (loop 0));"),
        "42"
    );
}

#[test]
fn structural_equality_on_nested_lists() {
    assert_eq!(
        value(
            "main = eq (cons (cons 1 nil) nil)\n\
                       (cons (cons 1 nil) nil);"
        ),
        "True"
    );
}

#[test]
fn higher_order_prelude_functions() {
    assert_eq!(
        value(
            "main = foldr (\\x acc -> add x acc) 0\n\
                    (filter (\\x -> lt x 3) (enumFromTo 1 10));"
        ),
        "3"
    );
    assert_eq!(
        value("main = append (enumFromTo 1 2) (enumFromTo 3 4);"),
        "[1, 2, 3, 4]"
    );
}

#[test]
fn signatures_are_honored() {
    assert_eq!(
        value(
            "twice :: (a -> a) -> a -> a;\n\
             twice f x = f (f x);\n\
             main = twice (\\n -> mul n 3) 2;"
        ),
        "18"
    );
}

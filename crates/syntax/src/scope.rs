//! Lexical scopes indexed by name.
//!
//! A pass that walks binders (lambda parameters, `let` groups, pattern
//! binders) and resolves each variable reference to its innermost
//! binder keeps a [`Scope`]: a stack of binders per name, plus the
//! order they were pushed in so a block can pop exactly its own. A
//! lookup hashes the name once, however many binders are in scope, so
//! a `let` of n bindings costs O(n) to resolve, not O(n²).

use std::collections::HashMap;

/// Binders in scope, innermost last, each carrying a `T`.
#[derive(Debug, Clone)]
pub struct Scope<'a, T> {
    /// Names in push order.
    order: Vec<&'a str>,
    /// Each name's binders, innermost last.
    by_name: HashMap<&'a str, Vec<T>>,
}

impl<T> Default for Scope<'_, T> {
    fn default() -> Self {
        Scope {
            order: Vec::new(),
            by_name: HashMap::new(),
        }
    }
}

impl<'a, T> Scope<'a, T> {
    pub fn new() -> Self {
        Scope::default()
    }

    /// Binders in scope, shadowed ones included.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Bring `name` into scope, shadowing any binder of the same name.
    pub fn push(&mut self, name: &'a str, value: T) {
        self.order.push(name);
        self.by_name.entry(name).or_default().push(value);
    }

    /// Pop the innermost binder.
    pub fn pop(&mut self) {
        if let Some(name) = self.order.pop() {
            if let Some(stack) = self.by_name.get_mut(name) {
                stack.pop();
            }
        }
    }

    /// Pop binders until `len` remain.
    pub fn truncate(&mut self, len: usize) {
        while self.order.len() > len {
            self.pop();
        }
    }

    /// The innermost binder of `name`, if any is in scope.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.by_name.get(name)?.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn innermost_binder_wins_and_pops_restore() {
        let mut s: Scope<'_, u32> = Scope::new();
        s.push("x", 1);
        s.push("y", 2);
        let mark = s.len();
        s.push("x", 3);
        assert_eq!(s.get("x"), Some(&3));
        s.truncate(mark);
        assert_eq!(s.get("x"), Some(&1));
        assert_eq!(s.get("y"), Some(&2));
        s.pop();
        assert_eq!(s.get("y"), None);
        assert_eq!(s.len(), 1);
    }
}

//! The validated class/instance environment.

use crate::data::DataEnv;
use std::collections::HashMap;
use tc_syntax::Span;
use tc_types::{Pred, Scheme, Type};

/// One method of a class.
#[derive(Debug, Clone)]
pub struct MethodInfo {
    pub name: String,
    /// The method's scheme *including* the class's own predicate, e.g.
    /// for `Eq.eq`: `forall a. Eq a => a -> a -> Bool`.
    pub scheme: Scheme,
    /// Position of this method inside the dictionary tuple, after the
    /// superclass dictionaries.
    pub index: usize,
    pub span: Span,
}

/// A class declaration.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    pub name: String,
    /// Superclass names, in declaration order. The dictionary for this
    /// class stores one superclass dictionary per entry, *before* the
    /// method slots.
    pub supers: Vec<String>,
    pub methods: Vec<MethodInfo>,
    pub span: Span,
}

impl ClassInfo {
    /// Total dictionary width: superclass dicts then methods.
    pub fn dict_width(&self) -> usize {
        self.supers.len() + self.methods.len()
    }

    /// Tuple slot of superclass `i`.
    pub fn super_slot(&self, i: usize) -> usize {
        i
    }

    /// Tuple slot of method `i`.
    pub fn method_slot(&self, i: usize) -> usize {
        self.supers.len() + i
    }
}

/// A validated instance declaration.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Dense id, also used to name the compiled dictionary constructor.
    pub id: usize,
    /// Index of the originating declaration in `Program::instances`,
    /// so `tc-core` can find the method bodies even when other
    /// (invalid) instance declarations were skipped during build.
    pub ast_index: usize,
    /// Context predicates (`Eq a` in `instance Eq a => Eq (List a)`).
    pub preds: Vec<Pred>,
    /// The head predicate (`Eq (List a)`). Always headed by a type
    /// constructor — var-headed instances are rejected at build time.
    pub head: Pred,
    pub span: Span,
}

impl Instance {
    /// Name of the compiled dictionary-constructor binding, e.g.
    /// `$dict2$Eq$List`.
    pub fn dict_binding_name(&self) -> String {
        let con = self.head.ty.head_con().unwrap_or("?");
        format!("$dict{}${}${}", self.id, self.head.class, con)
    }
}

/// Type variables each phase of a class-environment build allocated,
/// summed over the environment and every base it extends. A program
/// built on top skips these numbers phase by phase (see
/// [`crate::extend_class_env`]), so its own variables are numbered as if
/// both programs were one text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassVarCounts {
    pub datas: u32,
    pub classes: u32,
    pub instances: u32,
}

/// The class environment: classes by name, instances by class name.
#[derive(Debug, Clone, Default)]
pub struct ClassEnv {
    pub classes: HashMap<String, ClassInfo>,
    pub instances: HashMap<String, Vec<Instance>>,
    /// Method name → owning class name (methods are global).
    pub method_owner: HashMap<String, String>,
    /// Classes that participated in a superclass cycle, sorted by
    /// name. Build breaks the cycles structurally (clearing the
    /// participants' superclass lists) so traversals terminate; the
    /// coherence checker turns this record into `L0010` findings.
    pub cyclic_classes: Vec<String>,
    /// Data types and value constructors (builtins plus user `data`
    /// declarations), built before the classes so every lowered type
    /// can reference them.
    pub datas: DataEnv,
    /// Type variables the build allocated, per phase.
    pub var_counts: ClassVarCounts,
    /// Instances with ids below this come from the base environment the
    /// program's was built on ([`crate::extend_class_env`]); the rest
    /// are the program's own, each declared at its `ast_index` in the
    /// program's AST.
    pub base_instances: usize,
}

impl ClassEnv {
    /// The environment no program has extended yet: builtin data types
    /// only.
    pub fn builtin() -> Self {
        ClassEnv {
            datas: DataEnv::with_builtins(),
            ..ClassEnv::default()
        }
    }

    /// The environment as a base for other programs: every instance in
    /// it counts as the base's (see [`ClassEnv::base_instances`]).
    pub fn into_base(mut self) -> Self {
        self.base_instances = self.instance_count();
        self
    }

    /// Number of instances, which is also the id the next one gets.
    pub fn instance_count(&self) -> usize {
        self.instances.values().map(Vec::len).sum()
    }

    /// Is `inst` the program's own, not its base's?
    pub fn is_own(&self, inst: &Instance) -> bool {
        inst.id >= self.base_instances
    }

    /// The program's own instances, in no particular order.
    pub fn own_instances(&self) -> impl Iterator<Item = &Instance> {
        self.all_instances().filter(|i| self.is_own(i))
    }

    pub fn class(&self, name: &str) -> Option<&ClassInfo> {
        self.classes.get(name)
    }

    pub fn instances_of(&self, class: &str) -> &[Instance] {
        self.instances
            .get(class)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn all_instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values().flatten()
    }

    pub fn instance_by_id(&self, id: usize) -> Option<&Instance> {
        self.all_instances().find(|i| i.id == id)
    }

    /// Look up the class owning a method, plus its slot index.
    pub fn method(&self, name: &str) -> Option<(&ClassInfo, &MethodInfo)> {
        let owner = self.method_owner.get(name)?;
        let class = self.classes.get(owner)?;
        let m = class.methods.iter().find(|m| m.name == name)?;
        Some((class, m))
    }

    /// The superclass predicates of `pred` (instantiated at the same
    /// type): for `Ord Int` with `class Eq a => Ord a`, returns
    /// `[Eq Int]`. Unknown classes yield an empty list — the build
    /// phase has already reported them.
    pub fn supers_of(&self, pred: &Pred) -> Vec<Pred> {
        match self.classes.get(&pred.class) {
            Some(ci) => ci
                .supers
                .iter()
                .map(|s| Pred::new(s.clone(), pred.ty.clone(), pred.span))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Does an instance exist whose head could ever apply to `pred`?
    /// (One-way match of the instance head pattern onto the type.)
    pub fn matching_instance(
        &self,
        pred: &Pred,
    ) -> Option<(&Instance, std::collections::HashMap<tc_types::TyVar, Type>)> {
        for inst in self.instances_of(&pred.class) {
            if let Ok(s) = tc_types::match_types(&inst.head.ty, &pred.ty) {
                return Some((inst, s));
            }
        }
        None
    }

    /// All class names, sorted — handy for deterministic iteration.
    pub fn class_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.classes.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

/// Helper used by build & tests: the head constructor of an instance
/// type, e.g. `List` for `Eq (List a)`.
pub fn head_con_of(ty: &Type) -> Option<&str> {
    ty.head_con()
}

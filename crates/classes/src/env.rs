//! The validated class/instance environment.

use crate::data::DataEnv;
use std::collections::HashMap;
use tc_syntax::Span;
use tc_types::{match_ids, Interner, Pred, Scheme};

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
    /// See [`Instance::dict_binding_name`].
    dict_name: String,
}

impl Instance {
    pub fn new(id: usize, ast_index: usize, head: Pred, preds: Vec<Pred>, span: Span) -> Self {
        let con = head.ty.head_con().unwrap_or("?");
        let dict_name = format!("$dict{id}${}${con}", head.class);
        Instance {
            id,
            ast_index,
            preds,
            head,
            span,
            dict_name,
        }
    }

    /// Name of the compiled dictionary-constructor binding, e.g.
    /// `$dict2$Eq$List`.
    pub fn dict_binding_name(&self) -> &str {
        &self.dict_name
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

/// The class environment: classes by name, instances by class name
/// and by id, methods by name.
#[derive(Debug, Clone, Default)]
pub struct ClassEnv {
    pub classes: HashMap<String, ClassInfo>,
    /// Each class's instances, in the order they were added (the order
    /// instance search tries them in).
    instances: HashMap<String, Vec<Instance>>,
    /// Instance id → its class and its position in that class's list.
    instance_ids: HashMap<usize, (String, usize)>,
    /// Method name → owning class name and the method's position in the
    /// class's [`ClassInfo::methods`] (methods are global).
    pub method_owner: HashMap<String, (String, usize)>,
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
        self.instance_ids.len()
    }

    /// Register `inst` as its class's last instance.
    pub(crate) fn push_instance(&mut self, inst: Instance) {
        let list = self.instances.entry(inst.head.class.clone()).or_default();
        self.instance_ids
            .insert(inst.id, (inst.head.class.clone(), list.len()));
        list.push(inst);
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
        let (class, i) = self.instance_ids.get(&id)?;
        self.instances.get(class)?.get(*i)
    }

    /// Look up the class owning a method, plus its slot index.
    pub fn method(&self, name: &str) -> Option<(&ClassInfo, &MethodInfo)> {
        let (owner, i) = self.method_owner.get(name)?;
        let class = self.classes.get(owner)?;
        Some((class, class.methods.get(*i)?))
    }

    /// The first instance whose head matches `pred`: the instance
    /// resolution picks for `pred`. (One-way match of the instance head
    /// pattern onto the type, in a store of its own.)
    pub fn matching_instance(&self, pred: &Pred) -> Option<&Instance> {
        let mut types = Interner::new();
        let target = types.intern(&pred.ty);
        let (mut bindings, mut work) = (Vec::new(), Vec::new());
        self.instances_of(&pred.class).iter().find(|inst| {
            let head = types.intern(&inst.head.ty);
            match_ids(&types, head, target, &mut bindings, &mut work)
        })
    }

    /// All class names, sorted — handy for deterministic iteration.
    pub fn class_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.classes.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

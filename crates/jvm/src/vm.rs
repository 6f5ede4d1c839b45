//! The `Jvm` façade: one simulated Java virtual machine instance.

use jinn_obs::{event::NO_THREAD, LabelId, Recorder};

use crate::class::{names, ClassId, ClassRegistry, FieldSlot};
use crate::descriptor::{FieldType, PrimType};
use crate::handles::HandleSlab;
use crate::heap::{Body, GcStats, Heap, PrimArray, Slot};
use crate::mutf8;
use crate::pins::PinTable;
use crate::thread::{EnvToken, RefFault, ThreadState};
use crate::value::{JRef, ObjectId, Oop, RefKind, ThreadId};

/// Error from monitor operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorError {
    /// Another thread owns the monitor; a real thread would block, and in
    /// the single-threaded harness this is reported instead of hanging.
    WouldBlock {
        /// Current owner.
        owner: ThreadId,
    },
    /// `MonitorExit` by a thread that does not own the monitor.
    NotOwner,
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::WouldBlock { owner } => {
                write!(f, "monitor owned by {owner}; entering would block")
            }
            MonitorError::NotOwner => f.write_str("thread does not own the monitor"),
        }
    }
}

impl std::error::Error for MonitorError {}

#[derive(Debug, Clone)]
struct MonitorEntry {
    object: ObjectId,
    /// Keeps the monitored object alive; always `Some` while the entry
    /// exists (an `Option` only so the GC can update it in place).
    target: Option<Oop>,
    owner: ThreadId,
    count: u32,
}

/// One simulated JVM: class registry, heap, threads, reference tables,
/// monitors and pinned buffers.
///
/// The `Jvm` exposes *mechanism* only; the JNI function semantics (and all
/// checking) live in the `minijni` crate on top of this. Everything here
/// is deterministic: threads are logical, GC runs at explicit safepoints.
#[derive(Debug)]
pub struct Jvm {
    registry: ClassRegistry,
    heap: Heap,
    threads: Vec<ThreadState>,
    globals: HandleSlab,
    weaks: HandleSlab,
    /// Class-mirror objects, indexed by `ClassId` (GC roots).
    mirrors: Vec<Option<Oop>>,
    monitors: Vec<MonitorEntry>,
    pins: PinTable,
    next_env: u32,
    /// Run a GC automatically every N safepoints (None = only explicit).
    auto_gc_period: Option<u64>,
    safepoints: u64,
    /// The part of `safepoints` already added to the recorder's
    /// `gc.safepoints` counter (see [`Jvm::publish_counts`]).
    published_safepoints: u64,
    deferred_gcs: u64,
    recorder: Recorder,
    safepoints_label: LabelId,
    deferred_label: LabelId,
    collections_label: LabelId,
}

impl Jvm {
    /// Creates a JVM with the core classes bootstrapped and one main
    /// thread.
    pub fn new() -> Jvm {
        let mut jvm = Jvm {
            registry: ClassRegistry::with_core_classes(),
            heap: Heap::new(),
            threads: Vec::new(),
            globals: HandleSlab::new(RefKind::Global),
            weaks: HandleSlab::new(RefKind::WeakGlobal),
            mirrors: Vec::new(),
            monitors: Vec::new(),
            pins: PinTable::new(),
            next_env: 0xE0,
            auto_gc_period: None,
            safepoints: 0,
            published_safepoints: 0,
            deferred_gcs: 0,
            recorder: Recorder::disabled(),
            safepoints_label: LabelId(0),
            deferred_label: LabelId(0),
            collections_label: LabelId(0),
        };
        jvm.spawn_thread();
        jvm
    }

    /// The class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Mutable class registry (define classes, bind natives).
    pub fn registry_mut(&mut self) -> &mut ClassRegistry {
        &mut self.registry
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The pinned-buffer table.
    pub fn pins(&self) -> &PinTable {
        &self.pins
    }

    /// Mutable pinned-buffer table.
    pub fn pins_mut(&mut self) -> &mut PinTable {
        &mut self.pins
    }

    /// Configures automatic GC every `period` safepoints (`None` disables).
    pub fn set_auto_gc_period(&mut self, period: Option<u64>) {
        self.auto_gc_period = period;
    }

    /// Attaches an observability recorder. GC activity and pin traffic
    /// are recorded from then on.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.publish_counts();
        self.pins.set_recorder(recorder.clone());
        self.safepoints_label = recorder.intern("gc.safepoints");
        self.deferred_label = recorder.intern("gc.deferred");
        self.collections_label = recorder.intern("gc.collections");
        self.recorder = recorder;
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Safepoints passed so far (one per language transition the JNI
    /// layer drives).
    pub fn safepoints(&self) -> u64 {
        self.safepoints
    }

    /// Adds the safepoints passed since the last call to the recorder's
    /// `gc.safepoints` counter. The JNI layer calls this at every
    /// native-method return and at shutdown, so the counter is exact as
    /// of those points and costs one recorder push per native method
    /// rather than one per safepoint.
    pub fn publish_counts(&mut self) {
        let delta = self.safepoints - self.published_safepoints;
        if delta > 0 {
            self.published_safepoints = self.safepoints;
            self.recorder.count_id(self.safepoints_label, delta);
        }
    }

    /// Number of GCs that were due at a safepoint but deferred because a
    /// thread held a JNI critical section.
    pub fn deferred_gcs(&self) -> u64 {
        self.deferred_gcs
    }

    // ----- threads ------------------------------------------------------

    /// The main thread (always exists).
    pub fn main_thread(&self) -> ThreadId {
        ThreadId(0)
    }

    /// Spawns a new logical thread and returns its id.
    pub fn spawn_thread(&mut self) -> ThreadId {
        let id = ThreadId(self.threads.len() as u16);
        let env = EnvToken(self.next_env);
        self.next_env += 1;
        self.threads.push(ThreadState::new(id, env));
        id
    }

    /// All thread ids.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u16).map(ThreadId)
    }

    /// Read access to a thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown thread id.
    pub fn thread(&self, id: ThreadId) -> &ThreadState {
        &self.threads[id.0 as usize]
    }

    /// Mutable access to a thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown thread id.
    pub fn thread_mut(&mut self, id: ThreadId) -> &mut ThreadState {
        &mut self.threads[id.0 as usize]
    }

    /// Returns the thread owning the given `JNIEnv*` token, if any.
    pub fn thread_of_env(&self, env: EnvToken) -> Option<ThreadId> {
        self.threads.iter().find(|t| t.env() == env).map(|t| t.id())
    }

    // ----- references ---------------------------------------------------

    /// Resolves a reference to a heap address.
    ///
    /// Returns `Ok(None)` for the null reference and for live weak-global
    /// references whose target was collected (the JNI treats both as
    /// null).
    ///
    /// # Errors
    ///
    /// Returns a [`RefFault`] for dangling/forged handles and for local
    /// references used from a thread other than their owner.
    pub fn resolve(&self, current: ThreadId, r: JRef) -> Result<Option<Oop>, RefFault> {
        match r.kind() {
            RefKind::Null => Ok(None),
            RefKind::Local => {
                if r.owner() != current {
                    return Err(RefFault::WrongThread {
                        owner: r.owner(),
                        current,
                    });
                }
                let owner = self
                    .threads
                    .get(r.owner().0 as usize)
                    .ok_or(RefFault::OutOfRange {
                        kind: RefKind::Local,
                    })?;
                owner.resolve_local(r).map(Some)
            }
            RefKind::Global => self.globals.resolve(r),
            RefKind::WeakGlobal => self.weaks.resolve(r),
        }
    }

    /// Like [`Jvm::resolve`] but ignores local-reference thread ownership —
    /// the mechanical resolution a permissive real JVM performs when C code
    /// "gets lucky" using another thread's local reference.
    pub fn resolve_ignoring_thread(&self, r: JRef) -> Result<Option<Oop>, RefFault> {
        match r.kind() {
            RefKind::Local => {
                let owner = self
                    .threads
                    .get(r.owner().0 as usize)
                    .ok_or(RefFault::OutOfRange {
                        kind: RefKind::Local,
                    })?;
                owner.resolve_local(r).map(Some)
            }
            _ => self.resolve(self.main_thread(), r),
        }
    }

    /// Creates a local reference to `target` on `thread`.
    pub fn new_local(&mut self, thread: ThreadId, target: Oop) -> JRef {
        self.thread_mut(thread).acquire_local(target)
    }

    /// Creates a global reference to `target`.
    pub fn new_global(&mut self, target: Oop) -> JRef {
        self.globals.acquire(target)
    }

    /// Creates a weak-global reference to `target`.
    pub fn new_weak_global(&mut self, target: Oop) -> JRef {
        self.weaks.acquire(target)
    }

    /// Deletes a global reference.
    ///
    /// # Errors
    ///
    /// Returns a [`RefFault`] on double-free or forged handles.
    pub fn delete_global(&mut self, r: JRef) -> Result<(), RefFault> {
        self.globals.delete(r)
    }

    /// Deletes a weak-global reference.
    ///
    /// # Errors
    ///
    /// Returns a [`RefFault`] on double-free or forged handles.
    pub fn delete_weak_global(&mut self, r: JRef) -> Result<(), RefFault> {
        self.weaks.delete(r)
    }

    /// Live global-reference count (leak sweeps).
    pub fn global_count(&self) -> usize {
        self.globals.live_count()
    }

    /// Live weak-global-reference count.
    pub fn weak_global_count(&self) -> usize {
        self.weaks.live_count()
    }

    // ----- classes & mirrors --------------------------------------------

    /// Looks up a class by internal name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.registry.class_by_name(name)
    }

    /// The `java.lang.Class` mirror object for a class (allocated lazily;
    /// a GC root thereafter).
    pub fn mirror_oop(&mut self, class: ClassId) -> Oop {
        if self.mirrors.len() <= class.index() {
            self.mirrors.resize(class.index() + 1, None);
        }
        if let Some(oop) = self.mirrors[class.index()] {
            return oop;
        }
        let class_class = self
            .registry
            .class_by_name(names::CLASS)
            .expect("Class bootstrapped");
        let oop = self.heap.alloc_class_mirror(class_class, class);
        self.mirrors[class.index()] = Some(oop);
        oop
    }

    /// If `oop` is a class mirror, the mirrored class.
    pub fn class_of_mirror(&self, oop: Oop) -> Option<ClassId> {
        match &self.heap.get(oop).body {
            Body::ClassMirror(c) => Some(*c),
            _ => None,
        }
    }

    /// The runtime class of the object at `oop`.
    pub fn class_of(&self, oop: Oop) -> ClassId {
        self.heap.get(oop).class
    }

    /// Instance-of test against the class hierarchy.
    pub fn is_instance_of(&self, oop: Oop, class: ClassId) -> bool {
        self.registry.is_assignable(self.class_of(oop), class)
    }

    // ----- allocation ---------------------------------------------------

    fn default_fields(&self, class: ClassId) -> Vec<Slot> {
        self.registry
            .class(class)
            .layout()
            .iter()
            .map(|&fid| {
                let ty = &self.registry.field(fid).expect("layout field").ty;
                ClassRegistry::default_slot(ty)
            })
            .collect()
    }

    /// Allocates an instance of `class` with zero/null fields.
    pub fn alloc_object(&mut self, class: ClassId) -> Oop {
        let fields = self.default_fields(class);
        self.heap.alloc_object(class, fields)
    }

    /// Allocates a `java.lang.String` from UTF-16 code units.
    pub fn alloc_string_utf16(&mut self, chars: Vec<u16>) -> Oop {
        let string = self
            .registry
            .class_by_name(names::STRING)
            .expect("String bootstrapped");
        self.heap.alloc_string(string, chars)
    }

    /// Allocates a `java.lang.String` from a Rust string.
    pub fn alloc_string(&mut self, s: &str) -> Oop {
        self.alloc_string_utf16(mutf8::str_to_utf16(s))
    }

    /// Allocates a primitive array.
    pub fn alloc_prim_array(&mut self, elem: PrimType, len: usize) -> Oop {
        let class = self.registry.prim_array_class(elem);
        self.heap
            .alloc_prim_array(class, PrimArray::zeroed(elem, len))
    }

    /// Allocates a reference array with null elements.
    pub fn alloc_ref_array(&mut self, elem: FieldType, len: usize) -> Oop {
        let class = self.registry.array_class(elem);
        self.heap.alloc_ref_array(class, len)
    }

    /// The UTF-16 contents of a string object, if it is one.
    pub fn string_chars(&self, oop: Oop) -> Option<&[u16]> {
        match &self.heap.get(oop).body {
            Body::Str { chars } => Some(chars),
            _ => None,
        }
    }

    /// The Rust-string contents of a string object, if it is one.
    pub fn string_value(&self, oop: Oop) -> Option<String> {
        self.string_chars(oop).map(mutf8::utf16_to_string)
    }

    // ----- fields -------------------------------------------------------

    /// Reads an instance field slot.
    ///
    /// # Panics
    ///
    /// Panics if the field is static or the object has no such slot
    /// (callers validate IDs first).
    pub fn get_instance_field(&self, oop: Oop, field: crate::value::FieldId) -> Slot {
        let fi = self.registry.field(field).expect("valid field id");
        let FieldSlot::Instance(i) = fi.slot else {
            panic!("field `{}` is static", fi.name);
        };
        match &self.heap.get(oop).body {
            Body::Object { fields } => fields[i as usize],
            _ => panic!("not an ordinary object"),
        }
    }

    /// Writes an instance field slot.
    ///
    /// # Panics
    ///
    /// As for [`Jvm::get_instance_field`].
    pub fn set_instance_field(&mut self, oop: Oop, field: crate::value::FieldId, value: Slot) {
        let fi = self.registry.field(field).expect("valid field id");
        let FieldSlot::Instance(i) = fi.slot else {
            panic!("field `{}` is static", fi.name);
        };
        match &mut self.heap.get_mut(oop).body {
            Body::Object { fields } => fields[i as usize] = value,
            _ => panic!("not an ordinary object"),
        }
    }

    // ----- exceptions ---------------------------------------------------

    /// Allocates a throwable of `class_name` with the given message and
    /// makes it pending on `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `class_name` is not a registered class.
    pub fn throw_new(&mut self, thread: ThreadId, class_name: &str, message: &str) -> Oop {
        let class = self
            .find_class(class_name)
            .unwrap_or_else(|| panic!("throwable class `{class_name}` not registered"));
        let msg = self.alloc_string(message);
        let exc = self.alloc_object(class);
        if let Ok(fid) = self
            .registry
            .resolve_field(class, "message", "Ljava/lang/String;", false)
        {
            self.set_instance_field(exc, fid, Slot::Ref(Some(msg)));
        }
        self.thread_mut(thread).set_pending_exception(Some(exc));
        exc
    }

    /// Makes an existing throwable pending on `thread`.
    pub fn throw_existing(&mut self, thread: ThreadId, exception: Oop) {
        self.thread_mut(thread)
            .set_pending_exception(Some(exception));
    }

    /// The message of a throwable, if it has one.
    pub fn exception_message(&self, exc: Oop) -> Option<String> {
        let class = self.class_of(exc);
        let fid = self
            .registry
            .resolve_field(class, "message", "Ljava/lang/String;", false)
            .ok()?;
        match self.get_instance_field(exc, fid) {
            Slot::Ref(Some(s)) => self.string_value(s),
            _ => None,
        }
    }

    /// Renders `ClassName: message` for a pending throwable.
    pub fn describe_exception(&self, exc: Oop) -> String {
        let class = self.registry.class(self.class_of(exc)).dotted_name();
        match self.exception_message(exc) {
            Some(m) => format!("{class}: {m}"),
            None => class,
        }
    }

    // ----- monitors -----------------------------------------------------

    /// Enters the monitor of the object at `oop`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::WouldBlock`] if another thread owns it.
    pub fn monitor_enter(&mut self, thread: ThreadId, oop: Oop) -> Result<(), MonitorError> {
        let object = self.heap.id_of(oop);
        if let Some(m) = self.monitors.iter_mut().find(|m| m.object == object) {
            if m.owner == thread {
                m.count += 1;
                Ok(())
            } else {
                Err(MonitorError::WouldBlock { owner: m.owner })
            }
        } else {
            self.monitors.push(MonitorEntry {
                object,
                target: Some(oop),
                owner: thread,
                count: 1,
            });
            Ok(())
        }
    }

    /// Exits the monitor of the object at `oop`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::NotOwner`] if the thread does not own it.
    pub fn monitor_exit(&mut self, thread: ThreadId, oop: Oop) -> Result<(), MonitorError> {
        let object = self.heap.id_of(oop);
        let Some(pos) = self
            .monitors
            .iter()
            .position(|m| m.object == object && m.owner == thread)
        else {
            return Err(MonitorError::NotOwner);
        };
        self.monitors[pos].count -= 1;
        if self.monitors[pos].count == 0 {
            self.monitors.remove(pos);
        }
        Ok(())
    }

    /// Monitors currently held by `thread` (entry counts included) — the
    /// leak sweep at VM death.
    pub fn monitors_held(&self, thread: ThreadId) -> Vec<(ObjectId, u32)> {
        self.monitors
            .iter()
            .filter(|m| m.owner == thread)
            .map(|m| (m.object, m.count))
            .collect()
    }

    /// Total number of held monitors.
    pub fn monitor_count(&self) -> usize {
        self.monitors.len()
    }

    // ----- GC -----------------------------------------------------------

    /// Returns `true` if any thread is inside a JNI critical section
    /// (during which the collector must not run).
    pub fn any_critical_section(&self) -> bool {
        self.threads.iter().any(|t| t.in_critical_section())
    }

    /// A GC safepoint: runs a collection if the automatic period has
    /// elapsed and no critical section is active. Called by the JNI layer
    /// at every language transition.
    pub fn safepoint(&mut self) -> Option<GcStats> {
        self.safepoints += 1;
        let period = self.auto_gc_period?;
        if !self.safepoints.is_multiple_of(period) {
            return None;
        }
        if self.any_critical_section() {
            self.deferred_gcs += 1;
            self.recorder.count_id(self.deferred_label, 1);
            self.recorder.gc_safepoint_id(NO_THREAD, false);
            return None;
        }
        self.recorder.gc_safepoint_id(NO_THREAD, true);
        Some(self.gc())
    }

    /// Runs a copying collection now. All reference tables and internal
    /// roots are updated; stale `Oop`s held elsewhere become invalid.
    pub fn gc(&mut self) -> GcStats {
        let Jvm {
            registry,
            heap,
            threads,
            globals,
            weaks,
            mirrors,
            monitors,
            ..
        } = self;
        let mut roots: Vec<&mut Option<Oop>> = Vec::new();
        for t in threads.iter_mut() {
            roots.extend(t.roots_mut());
        }
        roots.extend(globals.roots_mut());
        roots.extend(registry.static_slots_mut().filter_map(|s| match s {
            Slot::Ref(r) => Some(r),
            _ => None,
        }));
        roots.extend(mirrors.iter_mut());
        for m in monitors.iter_mut() {
            roots.push(&mut m.target);
        }
        let mut strong = roots.into_iter();
        let mut weak = weaks.roots_mut();
        let stats = heap.collect(&mut [&mut strong], &mut [&mut weak]);
        self.recorder.count_id(self.collections_label, 1);
        self.recorder
            .gc_id(NO_THREAD, stats.live as u64, stats.collected as u64);
        stats
    }
}

impl Default for Jvm {
    fn default() -> Self {
        Jvm::new()
    }
}

impl Drop for Jvm {
    fn drop(&mut self) {
        self.publish_counts();
    }
}

/// A snapshot of leak-relevant VM state at termination, for the resource
/// machines' end-of-program sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationReport {
    /// Live global references.
    pub global_refs: usize,
    /// Live weak-global references.
    pub weak_refs: usize,
    /// Unreleased pinned buffers.
    pub pinned_buffers: usize,
    /// Held monitors (per thread, entry counts summed).
    pub monitors: usize,
}

impl Jvm {
    /// Gathers the termination leak report.
    pub fn termination_report(&self) -> TerminationReport {
        TerminationReport {
            global_refs: self.global_count(),
            weak_refs: self.weak_global_count(),
            pinned_buffers: self.pins.live_count(),
            monitors: self.monitors.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MemberFlags;

    #[test]
    fn threads_and_env_tokens() {
        let mut jvm = Jvm::new();
        let main = jvm.main_thread();
        let t2 = jvm.spawn_thread();
        assert_ne!(jvm.thread(main).env(), jvm.thread(t2).env());
        assert_eq!(jvm.thread_of_env(jvm.thread(t2).env()), Some(t2));
        assert_eq!(jvm.thread_of_env(EnvToken(0xFFFF_FFFF)), None);
    }

    #[test]
    fn local_ref_lifecycle_via_vm() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        let r = jvm.new_local(t, oop);
        assert_eq!(jvm.resolve(t, r).unwrap(), Some(oop));
        assert_eq!(jvm.resolve(t, JRef::NULL).unwrap(), None);
    }

    #[test]
    fn wrong_thread_local_use_faults_strictly_but_resolves_mechanically() {
        let mut jvm = Jvm::new();
        let t1 = jvm.main_thread();
        let t2 = jvm.spawn_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        let r = jvm.new_local(t1, oop);
        assert!(matches!(
            jvm.resolve(t2, r),
            Err(RefFault::WrongThread { .. })
        ));
        assert_eq!(jvm.resolve_ignoring_thread(r).unwrap(), Some(oop));
    }

    #[test]
    fn global_refs_survive_gc_locals_pin_correctly() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let a = jvm.alloc_object(class);
        let b = jvm.alloc_object(class);
        let ga = jvm.new_global(a);
        let lb = jvm.new_local(t, b);
        let id_a = jvm.heap().id_of(a);
        let id_b = jvm.heap().id_of(b);
        let stats = jvm.gc();
        assert_eq!(stats.live, 2);
        // Both survive: one via global, one via local root.
        let a2 = jvm.resolve(t, ga).unwrap().unwrap();
        let b2 = jvm.resolve(t, lb).unwrap().unwrap();
        assert_eq!(jvm.heap().id_of(a2), id_a);
        assert_eq!(jvm.heap().id_of(b2), id_b);
    }

    #[test]
    fn unrooted_objects_collected_weak_cleared() {
        let mut jvm = Jvm::new();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let a = jvm.alloc_object(class);
        let w = jvm.new_weak_global(a);
        let stats = jvm.gc();
        assert_eq!(stats.weak_cleared, 1);
        // Live weak handle now resolves to null.
        assert_eq!(jvm.resolve(jvm.main_thread(), w).unwrap(), None);
    }

    #[test]
    fn strings_roundtrip() {
        let mut jvm = Jvm::new();
        let s = jvm.alloc_string("héllo ☕");
        assert_eq!(jvm.string_value(s).unwrap(), "héllo ☕");
        assert!(jvm.string_chars(s).is_some());
        let o = jvm.alloc_object(jvm.find_class(names::OBJECT).unwrap());
        assert!(jvm.string_chars(o).is_none());
    }

    #[test]
    fn instance_fields_and_custom_classes() {
        let mut jvm = Jvm::new();
        let class = jvm
            .registry_mut()
            .define("demo/Holder")
            .field("value", "I", MemberFlags::public())
            .field("next", "Ldemo/Holder;", MemberFlags::public())
            .build()
            .unwrap();
        let fid_value = jvm
            .registry()
            .resolve_field(class, "value", "I", false)
            .unwrap();
        let fid_next = jvm
            .registry()
            .resolve_field(class, "next", "Ldemo/Holder;", false)
            .unwrap();
        let a = jvm.alloc_object(class);
        let b = jvm.alloc_object(class);
        jvm.set_instance_field(a, fid_value, Slot::Int(7));
        jvm.set_instance_field(a, fid_next, Slot::Ref(Some(b)));
        assert_eq!(jvm.get_instance_field(a, fid_value), Slot::Int(7));
        assert_eq!(jvm.get_instance_field(a, fid_next), Slot::Ref(Some(b)));
    }

    #[test]
    fn field_references_traced_through_gc() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm
            .registry_mut()
            .define("demo/Node")
            .field("next", "Ldemo/Node;", MemberFlags::public())
            .build()
            .unwrap();
        let fid = jvm
            .registry()
            .resolve_field(class, "next", "Ldemo/Node;", false)
            .unwrap();
        let inner = jvm.alloc_object(class);
        let outer = jvm.alloc_object(class);
        let inner_id = jvm.heap().id_of(inner);
        jvm.set_instance_field(outer, fid, Slot::Ref(Some(inner)));
        let r = jvm.new_local(t, outer);
        jvm.gc();
        let outer2 = jvm.resolve(t, r).unwrap().unwrap();
        let Slot::Ref(Some(inner2)) = jvm.get_instance_field(outer2, fid) else {
            panic!()
        };
        assert_eq!(jvm.heap().id_of(inner2), inner_id);
    }

    #[test]
    fn exceptions_pending_and_described() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let exc = jvm.throw_new(t, names::RUNTIME_EXCEPTION, "checked by native code");
        assert_eq!(jvm.thread(t).pending_exception(), Some(exc));
        assert_eq!(
            jvm.describe_exception(exc),
            "java.lang.RuntimeException: checked by native code"
        );
        jvm.thread_mut(t).set_pending_exception(None);
        assert!(jvm.thread(t).pending_exception().is_none());
    }

    #[test]
    fn pending_exception_survives_gc() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        jvm.throw_new(t, names::NPE, "boom");
        jvm.gc();
        let exc = jvm.thread(t).pending_exception().unwrap();
        assert_eq!(
            jvm.describe_exception(exc),
            "java.lang.NullPointerException: boom"
        );
    }

    #[test]
    fn monitors_enter_exit_and_leak_sweep() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        jvm.monitor_enter(t, oop).unwrap();
        jvm.monitor_enter(t, oop).unwrap();
        assert_eq!(jvm.monitors_held(t), vec![(jvm.heap().id_of(oop), 2)]);
        jvm.monitor_exit(t, oop).unwrap();
        assert_eq!(jvm.monitor_count(), 1);
        jvm.monitor_exit(t, oop).unwrap();
        assert_eq!(jvm.monitor_count(), 0);
        assert_eq!(jvm.monitor_exit(t, oop), Err(MonitorError::NotOwner));
    }

    #[test]
    fn monitor_contention_reported() {
        let mut jvm = Jvm::new();
        let t1 = jvm.main_thread();
        let t2 = jvm.spawn_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        jvm.monitor_enter(t1, oop).unwrap();
        assert_eq!(
            jvm.monitor_enter(t2, oop),
            Err(MonitorError::WouldBlock { owner: t1 })
        );
    }

    #[test]
    fn monitored_object_survives_gc() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        let id = jvm.heap().id_of(oop);
        jvm.monitor_enter(t, oop).unwrap();
        let stats = jvm.gc();
        assert_eq!(stats.live, 1);
        assert_eq!(jvm.heap().oop_of(id).map(|o| jvm.heap().id_of(o)), Some(id));
    }

    #[test]
    fn mirrors_are_stable_roots() {
        let mut jvm = Jvm::new();
        let class = jvm.find_class(names::STRING).unwrap();
        let m1 = jvm.mirror_oop(class);
        let id = jvm.heap().id_of(m1);
        assert_eq!(jvm.class_of_mirror(m1), Some(class));
        assert_eq!(jvm.mirror_oop(class), m1, "mirror cached");
        jvm.gc();
        let m2 = jvm.mirror_oop(class);
        assert_eq!(jvm.heap().id_of(m2), id, "same mirror after GC");
    }

    #[test]
    fn instance_of_and_class_queries() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let _ = t;
        let npe_class = jvm.find_class(names::NPE).unwrap();
        let throwable = jvm.find_class(names::THROWABLE).unwrap();
        let string_class = jvm.find_class(names::STRING).unwrap();
        let exc = jvm.alloc_object(npe_class);
        assert!(jvm.is_instance_of(exc, throwable));
        assert!(!jvm.is_instance_of(exc, string_class));
        assert_eq!(jvm.class_of(exc), npe_class);
    }

    #[test]
    fn safepoint_gc_respects_critical_sections() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        jvm.set_auto_gc_period(Some(1));
        assert!(jvm.safepoint().is_some(), "GC due every safepoint");
        jvm.thread_mut(t).enter_critical(ObjectId(1));
        assert!(
            jvm.safepoint().is_none(),
            "GC deferred inside critical section"
        );
        assert_eq!(jvm.deferred_gcs(), 1);
        jvm.thread_mut(t).exit_critical(ObjectId(1));
        assert!(jvm.safepoint().is_some());
    }

    #[test]
    fn arrays_allocate_with_correct_classes() {
        let mut jvm = Jvm::new();
        let ints = jvm.alloc_prim_array(PrimType::Int, 4);
        assert_eq!(jvm.registry().class(jvm.class_of(ints)).name(), "[I");
        let strs = jvm.alloc_ref_array(FieldType::object(names::STRING), 2);
        assert_eq!(
            jvm.registry().class(jvm.class_of(strs)).name(),
            "[Ljava/lang/String;"
        );
        match &jvm.heap().get(strs).body {
            Body::RefArray { elems } => assert_eq!(elems.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn termination_report_counts_everything() {
        let mut jvm = Jvm::new();
        let t = jvm.main_thread();
        let class = jvm.find_class(names::OBJECT).unwrap();
        let oop = jvm.alloc_object(class);
        let _g = jvm.new_global(oop);
        let _w = jvm.new_weak_global(oop);
        jvm.monitor_enter(t, oop).unwrap();
        let id = jvm.heap().id_of(oop);
        jvm.pins_mut().acquire(
            id,
            crate::pins::PinKind::StringChars,
            crate::pins::PinData::Utf16(vec![]),
        );
        let report = jvm.termination_report();
        assert_eq!(
            report,
            TerminationReport {
                global_refs: 1,
                weak_refs: 1,
                pinned_buffers: 1,
                monitors: 1
            }
        );
    }
}

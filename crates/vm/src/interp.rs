//! The Javelin interpreter, executing compile-once lowered programs.
//!
//! Design points that matter for WASABI:
//!
//! - **Compile-once hot path.** The interpreter executes the
//!   [`ProgramIndex`] built at [`Project::compile`] time: method bodies are
//!   lowered to slot-addressed [`LStmt`]/[`LExpr`] nodes in the index's
//!   flat vectors, locals live in a
//!   `Vec<Option<Value>>`, object fields in a slot vector, and every name
//!   comparison is an interned `u32`. Method resolution, exception-subtype
//!   checks, and config-key lookups are table lookups — no string hashing
//!   or superclass walks per call. Strings reappear only at the edges
//!   (trace events, fault messages, exception values), so observable
//!   output is byte-identical to the original tree walker.
//! - **Virtual clock.** `sleep(ms)` and delayed queue takes advance a virtual
//!   clock instead of blocking, so the paper's 15-minute test timeout and the
//!   missing-delay oracle are deterministic and fast.
//! - **Interception.** Right before every user-method call, the configured
//!   [`Interceptor`] is consulted with full
//!   static (call site) and dynamic (stack, clock) context — this is the
//!   AspectJ pointcut substitute. An [`InterceptAction::Throw`] makes the
//!   call site raise the given exception as if the callee had failed, and
//!   records an [`Event::Injected`] trace entry.
//! - **Strictness.** Malformed programs (unknown methods, bad operand types,
//!   arity mismatches) surface as [`VmError::Fault`], distinct from
//!   in-language exceptions, so corpus bugs cannot masquerade as retry bugs.
//! - **`break` targets loops**, never `switch` statements (Javelin switches
//!   have no fallthrough, so a `break` inside a state-machine switch exits
//!   the enclosing driver loop — matching how the corpus encodes
//!   state-machine executors).
//!
//! [`Project::compile`]: wasabi_lang::project::Project::compile

use crate::config::ConfigStore;
use crate::interceptor::{CallCtx, InterceptAction, Interceptor};
use crate::trace::{CallSite, Event, Trace};
use crate::value::{ExceptionValue, MapKey, Object, QueueData, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use wasabi_lang::ast::{BinOp, Lit, UnOp};
use wasabi_lang::index::{ClassId, ExcId, LBlock, LExpr, LExprId, LStmt, LStmtId, ProgramIndex};
use wasabi_lang::intern::{MethodSym, NameTable, Symbol};
use wasabi_lang::project::{MethodId, Project};

pub use wasabi_lang::index::is_global_builtin;

/// Interpreter-level failures, distinct from in-language exceptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The step budget was exhausted.
    FuelExhausted,
    /// The virtual clock passed the per-run time limit.
    Timeout {
        /// Virtual time at abort.
        virtual_ms: u64,
    },
    /// The program is malformed (unknown method, type error, ...).
    Fault(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::FuelExhausted => write!(f, "step budget exhausted"),
            VmError::Timeout { virtual_ms } => {
                write!(f, "virtual time limit exceeded at {virtual_ms} ms")
            }
            VmError::Fault(msg) => write!(f, "vm fault: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Resource limits for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum interpreter steps (statements + calls).
    pub fuel: u64,
    /// Maximum virtual time, in milliseconds. The paper aborts unit tests at
    /// 15 minutes; that is the default here too.
    pub virtual_time_limit_ms: u64,
    /// Maximum call-stack depth.
    pub max_call_depth: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            fuel: 5_000_000,
            virtual_time_limit_ms: 15 * 60 * 1000,
            max_call_depth: 64,
        }
    }
}

/// Non-local control flow during execution.
pub(crate) enum Control {
    Return(Value),
    Break,
    Continue,
    Throw(Rc<ExceptionValue>),
    Err(VmError),
}

type Exec = Result<(), Control>;
type Eval = Result<Value, Control>;

/// Result of invoking a method from the outside.
#[derive(Debug)]
pub enum InvokeResult {
    /// Normal completion with the returned value.
    Ok(Value),
    /// An exception escaped the invoked method.
    Exception(Rc<ExceptionValue>),
    /// The interpreter aborted.
    Vm(VmError),
}

/// Per-method local environment: one slot per compile-time local. `None`
/// means "not yet written" — reads then fall back to a `this` field,
/// preserving the dynamic local-or-field resolution of the original
/// string-keyed environment.
type Env = [Option<Value>];

/// The interpreter for one run (typically one unit test).
pub struct Interp<'p, 'i> {
    index: &'p ProgramIndex,
    /// Runtime configuration store (resettable between tests).
    pub config: ConfigStore,
    interceptor: &'i mut dyn Interceptor,
    limits: RunLimits,
    clock_ms: u64,
    fuel_used: u64,
    trace: Trace,
    stack: Vec<MethodSym>,
    injection_counts: HashMap<(CallSite, String), u32>,
    /// Names that only exist at run time (e.g. an unknown method passed to
    /// [`invoke`](Interp::invoke)); their symbols extend the frozen interner.
    extra_names: Vec<String>,
}

impl<'p, 'i> Interp<'p, 'i> {
    /// Creates an interpreter over `project` with the given interceptor.
    pub fn new(
        project: &'p Project,
        interceptor: &'i mut dyn Interceptor,
        limits: RunLimits,
    ) -> Self {
        let index: &'p ProgramIndex = &project.index;
        Interp {
            index,
            config: ConfigStore::from_index(index),
            interceptor,
            limits,
            clock_ms: 0,
            fuel_used: 0,
            trace: Trace::new(),
            stack: Vec::new(),
            injection_counts: HashMap::new(),
            extra_names: Vec::new(),
        }
    }

    /// Current virtual time in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.fuel_used
    }

    /// Takes the accumulated trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Pins a configuration key to its declared default: subsequent
    /// `setConfig` calls on it are ignored.
    pub fn pin_config(&mut self, key: &str) {
        match self.index.config_by_name(key) {
            Some(id) => self.config.pin_id(id),
            None => self.config.pin_undeclared(key),
        }
    }

    /// Instantiates `class` with a no-argument constructor and invokes
    /// `method` on it with `args`.
    pub fn invoke(&mut self, class: &str, method: &str, args: Vec<Value>) -> InvokeResult {
        let class_id = match self.index.class_by_name(class) {
            Some(id) => id,
            None => {
                return InvokeResult::Vm(VmError::Fault(format!("unknown class `{class}`")));
            }
        };
        let class_sym = self.index.classes[class_id.0 as usize].name;
        let method_sym = self.intern_runtime(method);
        // Synthesize an entry frame so stack snapshots are never empty.
        self.stack.push(MethodSym {
            class: self.index.wk.entry,
            name: method_sym,
        });
        let result = match self.instantiate(class_id, Vec::new()) {
            Ok(this) => self.call_resolved(this, class_id, class_sym, method_sym, args),
            Err(ctrl) => Err(ctrl),
        };
        self.stack.pop();
        match result {
            Ok(value) => InvokeResult::Ok(value),
            Err(Control::Throw(exc)) => InvokeResult::Exception(exc),
            Err(Control::Err(err)) => InvokeResult::Vm(err),
            Err(Control::Return(value)) => InvokeResult::Ok(value),
            Err(Control::Break) | Err(Control::Continue) => InvokeResult::Vm(VmError::Fault(
                "break/continue escaped method body".to_string(),
            )),
        }
    }

    // ---- Infrastructure ----------------------------------------------------

    fn tick(&mut self) -> Result<(), Control> {
        self.fuel_used += 1;
        if self.fuel_used > self.limits.fuel {
            return Err(Control::Err(VmError::FuelExhausted));
        }
        Ok(())
    }

    fn advance_clock(&mut self, ms: u64, record: bool) -> Result<(), Control> {
        let at_ms = self.clock_ms;
        self.clock_ms = self.clock_ms.saturating_add(ms);
        if record {
            let stack = self.resolve_stack();
            self.trace.events.push(Event::Slept { ms, at_ms, stack });
        }
        if self.clock_ms > self.limits.virtual_time_limit_ms {
            return Err(Control::Err(VmError::Timeout {
                virtual_ms: self.clock_ms,
            }));
        }
        Ok(())
    }

    /// Resolves the interned call stack to owned [`MethodId`]s. Only called
    /// off the hot path: at sleeps, exception creation, and injections.
    fn resolve_stack(&self) -> Vec<MethodId> {
        let names = NameTable::new(&self.index.interner, &self.extra_names);
        self.stack.iter().map(|&m| names.method_id(m)).collect()
    }

    /// Resolves a symbol that may come from the run-time overlay.
    fn resolve_name(&self, sym: Symbol) -> &str {
        let idx = sym.index();
        if idx < self.index.interner.len() {
            self.index.interner.resolve(sym)
        } else {
            &self.extra_names[idx - self.index.interner.len()]
        }
    }

    /// Interns a run-time name: frozen symbol if the program mentions it,
    /// overlay symbol past the frozen range otherwise.
    fn intern_runtime(&mut self, s: &str) -> Symbol {
        if let Some(sym) = self.index.interner.lookup(s) {
            return sym;
        }
        let base = self.index.interner.len();
        if let Some(pos) = self.extra_names.iter().position(|n| n == s) {
            return Symbol((base + pos) as u32);
        }
        self.extra_names.push(s.to_string());
        Symbol((base + self.extra_names.len() - 1) as u32)
    }

    fn fault(&self, msg: impl Into<String>) -> Control {
        Control::Err(VmError::Fault(msg.into()))
    }

    fn raise(&mut self, exc: ExcId, message: impl Into<String>) -> Control {
        let ty = self.index.exceptions[exc.0 as usize].name_str.clone();
        let exc_value = Rc::new(ExceptionValue {
            ty: ty.clone(),
            exc_id: Some(exc),
            message: message.into(),
            cause: None,
            raised_at: self.resolve_stack(),
            injected: false,
        });
        self.trace.events.push(Event::Raised {
            exc_type: ty,
            at_ms: self.clock_ms,
        });
        Control::Throw(exc_value)
    }

    /// Whether `exc` matches a `catch (sup ..)` clause. Exceptions whose
    /// type is not declared (possible only for injected types) match
    /// nothing, exactly like the original string-walk did.
    fn exc_matches(&self, exc: &ExceptionValue, sup: ExcId) -> bool {
        match exc.exc_id {
            Some(sub) => self.index.is_exc_subtype(sub, sup),
            None => false,
        }
    }

    // ---- Objects and calls -------------------------------------------------

    fn instantiate(&mut self, class: ClassId, args: Vec<Value>) -> Eval {
        let index = self.index;
        let cdef = &index.classes[class.0 as usize];
        let object = Rc::new(RefCell::new(Object {
            layout: Arc::clone(&cdef.layout),
            fields: vec![Value::Null; cdef.layout.len()],
        }));
        let this = Value::Object(Rc::clone(&object));
        // Evaluate initializers in declaration order (base-class fields
        // first) with `this` bound to the object under construction.
        // Initializer expressions cannot reference locals, so the
        // environment is empty.
        for init in &cdef.inits {
            let value = self.eval(&mut [], &this, init.expr)?;
            object.borrow_mut().fields[init.slot as usize] = value;
        }
        // Run the constructor, if declared.
        if cdef.has_init {
            self.call_resolved(this.clone(), class, cdef.name, index.wk.init, args)?;
        } else if !args.is_empty() {
            return Err(self.fault(format!(
                "class `{}` has no `init` constructor but was given {} argument(s)",
                cdef.name_str,
                args.len()
            )));
        }
        Ok(this)
    }

    /// Calls `method` on `this` (whose class is `class`), running the body.
    fn call_resolved(
        &mut self,
        this: Value,
        class: ClassId,
        class_sym: Symbol,
        method: Symbol,
        args: Vec<Value>,
    ) -> Eval {
        let index = self.index;
        let compiled = match index.resolve_dispatch(class, method) {
            Some(midx) => &index.methods[midx as usize],
            None => {
                return Err(self.fault(format!(
                    "unknown method `{}.{}`",
                    index.classes[class.0 as usize].name_str,
                    self.resolve_name(method)
                )));
            }
        };
        if compiled.params as usize != args.len() {
            return Err(self.fault(format!(
                "arity mismatch calling `{}.{}`: expected {}, got {}",
                index.classes[class.0 as usize].name_str,
                self.resolve_name(method),
                compiled.params,
                args.len()
            )));
        }
        if self.stack.len() >= self.limits.max_call_depth {
            return Err(self.fault(format!(
                "call depth limit ({}) exceeded calling `{}.{}`",
                self.limits.max_call_depth,
                index.classes[class.0 as usize].name_str,
                self.resolve_name(method)
            )));
        }
        let mut env: Vec<Option<Value>> = vec![None; compiled.n_slots as usize];
        for (slot, arg) in args.into_iter().enumerate() {
            env[slot] = Some(arg);
        }
        self.stack.push(MethodSym {
            class: class_sym,
            name: method,
        });
        let result = self.exec_block(&mut env, &this, compiled.body);
        self.stack.pop();
        match result {
            Ok(()) => Ok(Value::Null),
            Err(Control::Return(value)) => Ok(value),
            Err(other) => Err(other),
        }
    }

    /// Dispatches a call expression: interceptor, builtins, user methods.
    fn call_expr(
        &mut self,
        env: &mut Env,
        this: &Value,
        site: CallSite,
        recv: Option<LExprId>,
        method: Symbol,
        arg_exprs: &[LExprId],
    ) -> Eval {
        self.tick()?;
        let index = self.index;
        let recv_value = match recv {
            Some(expr) => self.eval(env, this, expr)?,
            None => this.clone(),
        };
        // Builtin methods on non-object receivers.
        match &recv_value {
            Value::Null => {
                let msg = format!("call to `{}` on null", index.interner.resolve(method));
                return Err(self.raise(index.wk.npe, msg));
            }
            Value::Object(_) => {}
            _ => {
                let mut args = Vec::with_capacity(arg_exprs.len());
                for &arg in arg_exprs {
                    args.push(self.eval(env, this, arg)?);
                }
                return self.value_builtin(&recv_value, index.interner.resolve(method), args);
            }
        }
        let (class_id, class_sym) = match &recv_value {
            Value::Object(obj) => {
                let layout = &obj.borrow().layout;
                (layout.class_id, layout.class_sym)
            }
            _ => unreachable!("receiver checked above"),
        };
        let mut args = Vec::with_capacity(arg_exprs.len());
        for &arg in arg_exprs {
            args.push(self.eval(env, this, arg)?);
        }
        // Consult the interceptor before entering the callee.
        let caller = self.stack.last().copied().unwrap_or(MethodSym {
            class: index.wk.entry,
            name: index.wk.entry,
        });
        let callee = MethodSym {
            class: class_sym,
            name: method,
        };
        let action = {
            let ctx = CallCtx {
                site,
                caller,
                callee,
                stack: &self.stack,
                now_ms: self.clock_ms,
                names: NameTable::new(&index.interner, &self.extra_names),
            };
            self.interceptor.before_call(&ctx)
        };
        match action {
            InterceptAction::Proceed => self.call_resolved(recv_value, class_id, class_sym, method, args),
            InterceptAction::Throw { exc_type, message } => {
                let count = self
                    .injection_counts
                    .entry((site, exc_type.clone()))
                    .or_insert(0);
                *count += 1;
                let count = *count;
                let names = NameTable::new(&index.interner, &self.extra_names);
                let callee_id = names.method_id(callee);
                self.trace.events.push(Event::Injected {
                    site,
                    caller: names.method_id(caller),
                    callee: callee_id.clone(),
                    exc_type: exc_type.clone(),
                    count,
                    at_ms: self.clock_ms,
                });
                let mut raised_at = self.resolve_stack();
                raised_at.push(callee_id);
                Err(Control::Throw(Rc::new(ExceptionValue {
                    exc_id: index.exc_by_name(&exc_type),
                    ty: exc_type,
                    message,
                    cause: None,
                    raised_at,
                    injected: true,
                })))
            }
        }
    }

    // ---- Statements ---------------------------------------------------------

    fn exec_block(&mut self, env: &mut Env, this: &Value, block: LBlock) -> Exec {
        let index = self.index;
        for &stmt in &index[block] {
            self.exec_stmt(env, this, stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, env: &mut Env, this: &Value, stmt: LStmtId) -> Exec {
        self.tick()?;
        let index = self.index;
        match index[stmt] {
            LStmt::Var { slot, init } => {
                let value = self.eval(env, this, init)?;
                env[slot as usize] = Some(value);
                Ok(())
            }
            LStmt::AssignLocal { slot, name, value } => {
                let value = self.eval(env, this, value)?;
                if env[slot as usize].is_some() {
                    env[slot as usize] = Some(value);
                    return Ok(());
                }
                // Fall back to an implicit `this` field, like Java.
                if let Value::Object(obj) = this {
                    let field_slot = obj.borrow().layout.slot(name);
                    if let Some(field_slot) = field_slot {
                        obj.borrow_mut().fields[field_slot] = value;
                        return Ok(());
                    }
                }
                // First write introduces a local (function-scoped).
                env[slot as usize] = Some(value);
                Ok(())
            }
            LStmt::AssignField { recv, name, value } => {
                let value = self.eval(env, this, value)?;
                let recv = self.eval(env, this, recv)?;
                match recv {
                    Value::Object(obj) => {
                        let field_slot = obj.borrow().layout.slot(name);
                        match field_slot {
                            Some(field_slot) => {
                                obj.borrow_mut().fields[field_slot] = value;
                                Ok(())
                            }
                            None => Err(self.fault(format!(
                                "no field `{}` on class `{}`",
                                self.index.interner.resolve(name),
                                obj.borrow().layout.class_name
                            ))),
                        }
                    }
                    Value::Null => {
                        let msg = format!(
                            "field write `{}` on null",
                            self.index.interner.resolve(name)
                        );
                        Err(self.raise(self.index.wk.npe, msg))
                    }
                    other => Err(self.fault(format!(
                        "field write on non-object value of type {}",
                        other.type_name()
                    ))),
                }
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.eval_bool(env, this, cond)? {
                    self.exec_block(env, this, then_blk)
                } else if let Some(else_blk) = else_blk {
                    self.exec_block(env, this, else_blk)
                } else {
                    Ok(())
                }
            }
            LStmt::While { cond, body } => {
                while self.eval_bool(env, this, cond)? {
                    match self.exec_block(env, this, body) {
                        Ok(()) => {}
                        Err(Control::Break) => break,
                        Err(Control::Continue) => continue,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(env, this, init)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_bool(env, this, cond)? {
                            break;
                        }
                    }
                    match self.exec_block(env, this, body) {
                        Ok(()) => {}
                        Err(Control::Break) => break,
                        Err(Control::Continue) => {}
                        Err(other) => return Err(other),
                    }
                    if let Some(update) = update {
                        self.exec_stmt(env, this, update)?;
                    }
                }
                Ok(())
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let value = self.eval(env, this, scrutinee)?;
                for case in &index[cases] {
                    if literal_matches(index, &value, case.lit) {
                        return self.exec_block(env, this, case.body);
                    }
                }
                if let Some(default) = default {
                    return self.exec_block(env, this, default);
                }
                Ok(())
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                let mut result = self.exec_block(env, this, body);
                if let Err(Control::Throw(exc)) = &result {
                    let exc = Rc::clone(exc);
                    for catch in &index[catches] {
                        if self.exc_matches(&exc, catch.exc) {
                            env[catch.binding as usize] =
                                Some(Value::Exception(Rc::clone(&exc)));
                            result = self.exec_block(env, this, catch.body);
                            break;
                        }
                    }
                }
                if let Some(finally) = finally {
                    match self.exec_block(env, this, finally) {
                        // A completed finally preserves the pending control.
                        Ok(()) => {}
                        // Abrupt finally overrides the pending control (Java
                        // semantics).
                        Err(ctrl) => return Err(ctrl),
                    }
                }
                result
            }
            LStmt::Throw { expr } => {
                let value = self.eval(env, this, expr)?;
                match value {
                    Value::Exception(exc) => {
                        self.trace.events.push(Event::Raised {
                            exc_type: exc.ty.clone(),
                            at_ms: self.clock_ms,
                        });
                        Err(Control::Throw(exc))
                    }
                    other => Err(self.fault(format!(
                        "throw of non-exception value of type {}",
                        other.type_name()
                    ))),
                }
            }
            LStmt::Return { expr } => {
                let value = match expr {
                    Some(expr) => self.eval(env, this, expr)?,
                    None => Value::Null,
                };
                Err(Control::Return(value))
            }
            LStmt::Break => Err(Control::Break),
            LStmt::Continue => Err(Control::Continue),
            LStmt::Sleep { ms } => {
                let ms = self.eval_int(env, this, ms)?;
                if ms < 0 {
                    return Err(self.fault("negative sleep duration"));
                }
                self.advance_clock(ms as u64, true)
            }
            LStmt::Log { expr } => {
                let value = self.eval(env, this, expr)?;
                self.trace.events.push(Event::Logged {
                    message: value.render(),
                    at_ms: self.clock_ms,
                });
                Ok(())
            }
            LStmt::Assert { cond, msg } => {
                if self.eval_bool(env, this, cond)? {
                    Ok(())
                } else {
                    let message = match msg {
                        Some(msg) => self.eval(env, this, msg)?.render(),
                        None => "assertion failed".to_string(),
                    };
                    Err(self.raise(self.index.wk.assertion, message))
                }
            }
            LStmt::Expr { expr } => {
                self.eval(env, this, expr)?;
                Ok(())
            }
        }
    }

    // ---- Expressions ---------------------------------------------------------

    fn eval_bool(&mut self, env: &mut Env, this: &Value, expr: LExprId) -> Result<bool, Control> {
        match self.eval(env, this, expr)? {
            Value::Bool(b) => Ok(b),
            other => Err(self.fault(format!(
                "condition must be a bool, got {}",
                other.type_name()
            ))),
        }
    }

    fn eval_int(&mut self, env: &mut Env, this: &Value, expr: LExprId) -> Result<i64, Control> {
        match self.eval(env, this, expr)? {
            Value::Int(v) => Ok(v),
            other => Err(self.fault(format!("expected an int, got {}", other.type_name()))),
        }
    }

    fn eval(&mut self, env: &mut Env, this: &Value, expr: LExprId) -> Eval {
        let index = self.index;
        match index[expr] {
            LExpr::Literal(lit) => Ok(literal_to_value(index, lit)),
            LExpr::Local { slot, name } => {
                if let Some(value) = &env[slot as usize] {
                    return Ok(value.clone());
                }
                self.read_this_field(this, name)
            }
            LExpr::ImplicitField { name } => self.read_this_field(this, name),
            LExpr::This => Ok(this.clone()),
            LExpr::Field { recv, name } => {
                let recv = self.eval(env, this, recv)?;
                match recv {
                    Value::Object(obj) => {
                        let borrowed = obj.borrow();
                        match borrowed.layout.slot(name) {
                            Some(field_slot) => Ok(borrowed.fields[field_slot].clone()),
                            None => Err(self.fault(format!(
                                "no field `{}` on class `{}`",
                                self.index.interner.resolve(name),
                                borrowed.layout.class_name
                            ))),
                        }
                    }
                    Value::Null => {
                        let msg = format!(
                            "field read `{}` on null",
                            self.index.interner.resolve(name)
                        );
                        Err(self.raise(self.index.wk.npe, msg))
                    }
                    other => Err(self.fault(format!(
                        "field read on non-object value of type {}",
                        other.type_name()
                    ))),
                }
            }
            LExpr::GlobalCall { name, args } => {
                self.tick()?;
                let mut arg_values = Vec::with_capacity(args.len());
                for &arg in &index[args] {
                    arg_values.push(self.eval(env, this, arg)?);
                }
                self.global_builtin(index.interner.resolve(name), arg_values)
            }
            LExpr::Call {
                site,
                recv,
                method,
                args,
            } => self.call_expr(env, this, site, recv, method, &index[args]),
            LExpr::NewExc { exc, args } => {
                self.tick()?;
                let mut arg_values = Vec::with_capacity(args.len());
                for &arg in &index[args] {
                    arg_values.push(self.eval(env, this, arg)?);
                }
                self.new_exception(exc, arg_values)
            }
            LExpr::NewObj { class, args } => {
                self.tick()?;
                let mut arg_values = Vec::with_capacity(args.len());
                for &arg in &index[args] {
                    arg_values.push(self.eval(env, this, arg)?);
                }
                self.instantiate(class, arg_values)
            }
            LExpr::NewUnknown { class, args } => {
                self.tick()?;
                // Arguments still evaluate (for their side effects) before
                // the fault, exactly like the original instantiate path.
                for &arg in &index[args] {
                    self.eval(env, this, arg)?;
                }
                Err(self.fault(format!(
                    "cannot instantiate unknown class `{}`",
                    index.text(class)
                )))
            }
            LExpr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        return Ok(Value::Bool(
                            self.eval_bool(env, this, lhs)? && self.eval_bool(env, this, rhs)?,
                        ));
                    }
                    BinOp::Or => {
                        return Ok(Value::Bool(
                            self.eval_bool(env, this, lhs)? || self.eval_bool(env, this, rhs)?,
                        ));
                    }
                    _ => {}
                }
                let lhs = self.eval(env, this, lhs)?;
                let rhs = self.eval(env, this, rhs)?;
                self.binary(op, lhs, rhs)
            }
            LExpr::Unary { op, expr } => {
                let value = self.eval(env, this, expr)?;
                match (op, value) {
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(v.wrapping_neg())),
                    (op, other) => Err(self.fault(format!(
                        "unary `{}` on {}",
                        op.symbol(),
                        other.type_name()
                    ))),
                }
            }
            LExpr::InstanceOf {
                expr,
                ty,
                exc,
                class,
            } => {
                let value = self.eval(env, this, expr)?;
                let result = match value {
                    Value::Exception(e) => match e.exc_id {
                        Some(sub) => match exc {
                            Some(sup) => self.index.is_exc_subtype(sub, sup),
                            None => false,
                        },
                        // Undeclared (injected) exception type: the original
                        // string walk still matched on direct name equality.
                        None => self.index.interner.resolve(ty) == e.ty,
                    },
                    Value::Object(obj) => match class {
                        Some(sup) => self.index.is_class_subtype(obj.borrow().layout.class_id, sup),
                        None => false,
                    },
                    _ => false,
                };
                Ok(Value::Bool(result))
            }
        }
    }

    /// Reads the named field off `this` — the fallback for identifiers with
    /// no (written) local slot.
    fn read_this_field(&self, this: &Value, name: Symbol) -> Eval {
        if let Value::Object(obj) = this {
            let borrowed = obj.borrow();
            if let Some(field_slot) = borrowed.layout.slot(name) {
                return Ok(borrowed.fields[field_slot].clone());
            }
        }
        Err(self.fault(format!(
            "unknown variable `{}`",
            self.index.interner.resolve(name)
        )))
    }

    fn new_exception(&mut self, exc: ExcId, args: Vec<Value>) -> Eval {
        let index = self.index;
        let ty = &index.exceptions[exc.0 as usize].name_str;
        let mut iter = args.into_iter();
        let message = match iter.next() {
            None => String::new(),
            Some(Value::Str(s)) => s.as_ref().clone(),
            Some(other) => other.render(),
        };
        let cause = match iter.next() {
            None => None,
            Some(Value::Exception(exc)) => Some(exc),
            Some(Value::Null) => None,
            Some(other) => {
                return Err(self.fault(format!(
                    "exception cause must be an exception, got {}",
                    other.type_name()
                )));
            }
        };
        if iter.next().is_some() {
            return Err(self.fault(format!(
                "exception constructor `{ty}` takes at most (message, cause)"
            )));
        }
        Ok(Value::Exception(Rc::new(ExceptionValue {
            ty: ty.clone(),
            exc_id: Some(exc),
            message,
            cause,
            raised_at: self.resolve_stack(),
            injected: false,
        })))
    }

    fn binary(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Eval {
        match op {
            BinOp::Add => match (&lhs, &rhs) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                (Value::Str(_), _) | (_, Value::Str(_)) => {
                    Ok(Value::str(format!("{}{}", lhs.render(), rhs.render())))
                }
                _ => Err(self.fault(format!(
                    "`+` on {} and {}",
                    lhs.type_name(),
                    rhs.type_name()
                ))),
            },
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => match (&lhs, &rhs) {
                (Value::Int(a), Value::Int(b)) => match op {
                    BinOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    BinOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    BinOp::Div => {
                        if *b == 0 {
                            Err(self.raise(self.index.wk.arithmetic, "division by zero"))
                        } else {
                            Ok(Value::Int(a.wrapping_div(*b)))
                        }
                    }
                    BinOp::Rem => {
                        if *b == 0 {
                            Err(self.raise(self.index.wk.arithmetic, "remainder by zero"))
                        } else {
                            Ok(Value::Int(a.wrapping_rem(*b)))
                        }
                    }
                    _ => unreachable!("arithmetic op"),
                },
                _ => Err(self.fault(format!(
                    "`{}` on {} and {}",
                    op.symbol(),
                    lhs.type_name(),
                    rhs.type_name()
                ))),
            },
            BinOp::Eq => Ok(Value::Bool(lhs.value_eq(&rhs))),
            BinOp::NotEq => Ok(Value::Bool(!lhs.value_eq(&rhs))),
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => match (&lhs, &rhs) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Bool(match op {
                    BinOp::Lt => a < b,
                    BinOp::LtEq => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::GtEq => a >= b,
                    _ => unreachable!("comparison op"),
                })),
                _ => Err(self.fault(format!(
                    "`{}` on {} and {}",
                    op.symbol(),
                    lhs.type_name(),
                    rhs.type_name()
                ))),
            },
            BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
        }
    }

    // ---- Builtins -------------------------------------------------------------

    fn global_builtin(&mut self, name: &str, mut args: Vec<Value>) -> Eval {
        let arity = args.len();
        let wrong_arity = |interp: &Self, expected: usize| {
            Err::<Value, Control>(interp.fault(format!(
                "builtin `{name}` expects {expected} argument(s), got {arity}"
            )))
        };
        match name {
            "queue" => {
                if arity != 0 {
                    return wrong_arity(self, 0);
                }
                Ok(Value::Queue(Rc::new(RefCell::new(QueueData::default()))))
            }
            "list" => {
                if arity != 0 {
                    return wrong_arity(self, 0);
                }
                Ok(Value::List(Rc::new(RefCell::new(Vec::new()))))
            }
            "map" => {
                if arity != 0 {
                    return wrong_arity(self, 0);
                }
                Ok(Value::Map(Rc::new(RefCell::new(HashMap::new()))))
            }
            "now" => {
                if arity != 0 {
                    return wrong_arity(self, 0);
                }
                Ok(Value::Int(self.clock_ms as i64))
            }
            "getConfig" => {
                if arity != 1 {
                    return wrong_arity(self, 1);
                }
                match &args[0] {
                    Value::Str(key) => Ok(match self.index.config_by_name(key) {
                        Some(id) => self.config.get_id(id),
                        None => self.config.get_undeclared(key),
                    }),
                    other => Err(self.fault(format!(
                        "getConfig key must be a string, got {}",
                        other.type_name()
                    ))),
                }
            }
            "setConfig" => {
                if arity != 2 {
                    return wrong_arity(self, 2);
                }
                let value = args.pop().expect("arity checked");
                match &args[0] {
                    Value::Str(key) => {
                        match self.index.config_by_name(key) {
                            Some(id) => self.config.set_id(id, value),
                            None => self.config.set_undeclared(key, value),
                        }
                        Ok(Value::Null)
                    }
                    other => Err(self.fault(format!(
                        "setConfig key must be a string, got {}",
                        other.type_name()
                    ))),
                }
            }
            "str" => {
                if arity != 1 {
                    return wrong_arity(self, 1);
                }
                Ok(Value::str(args[0].render()))
            }
            "min" | "max" => {
                if arity != 2 {
                    return wrong_arity(self, 2);
                }
                match (&args[0], &args[1]) {
                    (Value::Int(a), Value::Int(b)) => Ok(Value::Int(if name == "min" {
                        *a.min(b)
                    } else {
                        *a.max(b)
                    })),
                    _ => Err(self.fault(format!("`{name}` expects int arguments"))),
                }
            }
            "abs" => {
                if arity != 1 {
                    return wrong_arity(self, 1);
                }
                match &args[0] {
                    Value::Int(v) => Ok(Value::Int(v.wrapping_abs())),
                    other => Err(self.fault(format!(
                        "`abs` expects an int, got {}",
                        other.type_name()
                    ))),
                }
            }
            "pow" => {
                if arity != 2 {
                    return wrong_arity(self, 2);
                }
                match (&args[0], &args[1]) {
                    (Value::Int(base), Value::Int(exp)) if *exp >= 0 => {
                        let exp = (*exp).min(63) as u32;
                        Ok(Value::Int(base.saturating_pow(exp)))
                    }
                    _ => Err(self.fault("`pow` expects int base and non-negative int exponent")),
                }
            }
            other => Err(self.fault(format!("unknown global builtin `{other}`"))),
        }
    }

    fn value_builtin(&mut self, recv: &Value, method: &str, args: Vec<Value>) -> Eval {
        match recv {
            Value::Queue(queue) => self.queue_builtin(queue, method, args),
            Value::List(list) => self.list_builtin(list, method, args),
            Value::Map(map) => self.map_builtin(map, method, args),
            Value::Str(s) => self.str_builtin(s, method, args),
            Value::Exception(exc) => self.exception_builtin(exc, method, args),
            other => Err(self.fault(format!(
                "cannot call `{method}` on value of type {}",
                other.type_name()
            ))),
        }
    }

    fn queue_builtin(
        &mut self,
        queue: &Rc<RefCell<QueueData>>,
        method: &str,
        mut args: Vec<Value>,
    ) -> Eval {
        match (method, args.len()) {
            ("put", 1) => {
                let value = args.pop().expect("arity checked");
                let now = self.clock_ms;
                queue.borrow_mut().entries.push_back((value, now));
                Ok(Value::Null)
            }
            ("putDelayed", 2) => {
                let delay = match args.pop().expect("arity checked") {
                    Value::Int(v) if v >= 0 => v as u64,
                    _ => return Err(self.fault("putDelayed delay must be a non-negative int")),
                };
                let value = args.pop().expect("arity checked");
                let ready = self.clock_ms.saturating_add(delay);
                queue.borrow_mut().entries.push_back((value, ready));
                Ok(Value::Null)
            }
            ("take", 0) => {
                let entry = queue.borrow_mut().entries.pop_front();
                match entry {
                    Some((value, ready)) => {
                        if ready > self.clock_ms {
                            // Waiting for a delayed entry counts as a delay
                            // for the missing-delay oracle.
                            self.advance_clock(ready - self.clock_ms, true)?;
                        }
                        Ok(value)
                    }
                    None => Ok(Value::Null),
                }
            }
            ("peek", 0) => Ok(queue
                .borrow()
                .entries
                .front()
                .map(|(v, _)| v.clone())
                .unwrap_or(Value::Null)),
            ("isEmpty", 0) => Ok(Value::Bool(queue.borrow().entries.is_empty())),
            ("size", 0) => Ok(Value::Int(queue.borrow().entries.len() as i64)),
            ("clear", 0) => {
                queue.borrow_mut().entries.clear();
                Ok(Value::Null)
            }
            (other, n) => Err(self.fault(format!("unknown queue method `{other}/{n}`"))),
        }
    }

    fn list_builtin(
        &mut self,
        list: &Rc<RefCell<Vec<Value>>>,
        method: &str,
        mut args: Vec<Value>,
    ) -> Eval {
        match (method, args.len()) {
            ("add", 1) => {
                list.borrow_mut().push(args.pop().expect("arity checked"));
                Ok(Value::Null)
            }
            ("get", 1) => {
                let idx = self.index_arg(&args[0], list.borrow().len())?;
                Ok(list.borrow()[idx].clone())
            }
            ("set", 2) => {
                let value = args.pop().expect("arity checked");
                let idx = self.index_arg(&args[0], list.borrow().len())?;
                list.borrow_mut()[idx] = value;
                Ok(Value::Null)
            }
            ("removeAt", 1) => {
                let idx = self.index_arg(&args[0], list.borrow().len())?;
                Ok(list.borrow_mut().remove(idx))
            }
            ("remove", 1) => {
                let needle = &args[0];
                let pos = list.borrow().iter().position(|v| v.value_eq(needle));
                match pos {
                    Some(idx) => {
                        list.borrow_mut().remove(idx);
                        Ok(Value::Bool(true))
                    }
                    None => Ok(Value::Bool(false)),
                }
            }
            ("contains", 1) => {
                let needle = &args[0];
                Ok(Value::Bool(
                    list.borrow().iter().any(|v| v.value_eq(needle)),
                ))
            }
            ("size", 0) => Ok(Value::Int(list.borrow().len() as i64)),
            ("isEmpty", 0) => Ok(Value::Bool(list.borrow().is_empty())),
            ("clear", 0) => {
                list.borrow_mut().clear();
                Ok(Value::Null)
            }
            (other, n) => Err(self.fault(format!("unknown list method `{other}/{n}`"))),
        }
    }

    fn index_arg(&self, value: &Value, len: usize) -> Result<usize, Control> {
        match value {
            Value::Int(v) if *v >= 0 && (*v as usize) < len => Ok(*v as usize),
            Value::Int(v) => Err(self.fault(format!("index {v} out of bounds (len {len})"))),
            other => Err(self.fault(format!("index must be an int, got {}", other.type_name()))),
        }
    }

    fn map_builtin(
        &mut self,
        map: &Rc<RefCell<HashMap<MapKey, Value>>>,
        method: &str,
        mut args: Vec<Value>,
    ) -> Eval {
        let key_arg = |interp: &Self, value: &Value| {
            MapKey::from_value(value).ok_or_else(|| {
                interp.fault(format!(
                    "map key must be int/string/bool, got {}",
                    value.type_name()
                ))
            })
        };
        match (method, args.len()) {
            ("put", 2) => {
                let value = args.pop().expect("arity checked");
                let key = key_arg(self, &args[0])?;
                Ok(map.borrow_mut().insert(key, value).unwrap_or(Value::Null))
            }
            ("get", 1) => {
                let key = key_arg(self, &args[0])?;
                Ok(map.borrow().get(&key).cloned().unwrap_or(Value::Null))
            }
            ("containsKey", 1) => {
                let key = key_arg(self, &args[0])?;
                Ok(Value::Bool(map.borrow().contains_key(&key)))
            }
            ("remove", 1) => {
                let key = key_arg(self, &args[0])?;
                Ok(map.borrow_mut().remove(&key).unwrap_or(Value::Null))
            }
            ("size", 0) => Ok(Value::Int(map.borrow().len() as i64)),
            ("isEmpty", 0) => Ok(Value::Bool(map.borrow().is_empty())),
            ("clear", 0) => {
                map.borrow_mut().clear();
                Ok(Value::Null)
            }
            ("keys", 0) => {
                // Deterministic order: sort keys.
                let mut keys: Vec<MapKey> = map.borrow().keys().cloned().collect();
                keys.sort();
                let values = keys
                    .into_iter()
                    .map(|k| match k {
                        MapKey::Int(v) => Value::Int(v),
                        MapKey::Str(s) => Value::str(s),
                        MapKey::Bool(b) => Value::Bool(b),
                    })
                    .collect();
                Ok(Value::List(Rc::new(RefCell::new(values))))
            }
            (other, n) => Err(self.fault(format!("unknown map method `{other}/{n}`"))),
        }
    }

    fn str_builtin(&mut self, s: &Rc<String>, method: &str, args: Vec<Value>) -> Eval {
        let str_arg = |interp: &Self, value: &Value| match value {
            Value::Str(s) => Ok(s.as_ref().clone()),
            other => Err(interp.fault(format!(
                "string method argument must be a string, got {}",
                other.type_name()
            ))),
        };
        match (method, args.len()) {
            ("length", 0) => Ok(Value::Int(s.len() as i64)),
            ("isEmpty", 0) => Ok(Value::Bool(s.is_empty())),
            ("contains", 1) => Ok(Value::Bool(s.contains(&str_arg(self, &args[0])?))),
            ("startsWith", 1) => Ok(Value::Bool(s.starts_with(&str_arg(self, &args[0])?))),
            ("endsWith", 1) => Ok(Value::Bool(s.ends_with(&str_arg(self, &args[0])?))),
            ("equals", 1) => Ok(Value::Bool(s.as_ref() == &str_arg(self, &args[0])?)),
            (other, n) => Err(self.fault(format!("unknown string method `{other}/{n}`"))),
        }
    }

    fn exception_builtin(
        &mut self,
        exc: &Rc<ExceptionValue>,
        method: &str,
        args: Vec<Value>,
    ) -> Eval {
        match (method, args.len()) {
            ("getMessage", 0) => Ok(Value::str(exc.message.clone())),
            ("getCause", 0) => Ok(exc
                .cause
                .as_ref()
                .map(|c| Value::Exception(Rc::clone(c)))
                .unwrap_or(Value::Null)),
            ("getType", 0) => Ok(Value::str(exc.ty.clone())),
            (other, n) => Err(self.fault(format!("unknown exception method `{other}/{n}`"))),
        }
    }
}

/// Whether a switch scrutinee matches a case literal, without allocating a
/// value for the literal. Semantically identical to
/// `value.value_eq(&literal_to_value(index, lit))`.
fn literal_matches(index: &ProgramIndex, value: &Value, lit: Lit) -> bool {
    match (value, lit) {
        (Value::Int(a), Lit::Int(b)) => *a == b,
        (Value::Str(a), Lit::Str(b)) => a.as_str() == index.text(b),
        (Value::Bool(a), Lit::Bool(b)) => *a == b,
        (Value::Null, Lit::Null) => true,
        _ => false,
    }
}

fn literal_to_value(index: &ProgramIndex, lit: Lit) -> Value {
    match lit {
        Lit::Int(v) => Value::Int(v),
        Lit::Str(s) => Value::str(index.text(s)),
        Lit::Bool(b) => Value::Bool(b),
        Lit::Null => Value::Null,
    }
}

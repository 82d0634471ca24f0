//! Calling-context recording.
//!
//! ValueExpert records the full CPU call path of every GPU API invocation
//! and merges value-flow-graph vertices that share a call path (§5.2).
//! Real tools unwind the stack; our workloads are straight-line Rust, so
//! the runtime exposes an explicit frame stack that workload code pushes
//! and pops (RAII-guarded). Paths are interned into stable
//! [`CallPathId`]s, giving the profiler cheap context comparison.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One frame of a call path: function name plus optional file/line.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// Function (or operator/layer) name.
    pub function: String,
    /// Source file, when known.
    pub file: Option<String>,
    /// Source line, when known.
    pub line: Option<u32>,
}

impl Frame {
    /// Creates a frame with just a function name.
    pub fn named(function: impl Into<String>) -> Self {
        Frame { function: function.into(), file: None, line: None }
    }

    /// Creates a frame with full source location.
    pub fn located(function: impl Into<String>, file: impl Into<String>, line: u32) -> Self {
        Frame { function: function.into(), file: Some(file.into()), line: Some(line) }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.file, self.line) {
            (Some(file), Some(line)) => write!(f, "{} ({file}:{line})", self.function),
            (Some(file), None) => write!(f, "{} ({file})", self.function),
            _ => f.write_str(&self.function),
        }
    }
}

/// Interned identifier of a full call path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CallPathId(pub u32);

impl CallPathId {
    /// The empty call path (no frames pushed).
    pub const ROOT: CallPathId = CallPathId(0);
}

impl fmt::Display for CallPathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Records the current call path and interns observed paths.
#[derive(Debug)]
pub struct CallPathRecorder {
    stack: Vec<Frame>,
    interned: HashMap<Vec<Frame>, CallPathId>,
    paths: Vec<Arc<[Frame]>>,
}

impl Default for CallPathRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CallPathRecorder {
    /// Creates a recorder whose current path is the empty root path.
    pub fn new() -> Self {
        let mut r =
            CallPathRecorder { stack: Vec::new(), interned: HashMap::new(), paths: Vec::new() };
        let root = r.intern_current();
        debug_assert_eq!(root, CallPathId::ROOT);
        r
    }

    /// Pushes a frame; pair it with [`CallPathRecorder::pop`].
    pub fn push(&mut self, frame: Frame) {
        self.stack.push(frame);
    }

    /// Pops the innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (unbalanced push/pop).
    pub fn pop(&mut self) {
        self.stack.pop().expect("unbalanced call path pop");
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Interns the current path and returns its id.
    pub fn intern_current(&mut self) -> CallPathId {
        if let Some(&id) = self.interned.get(&self.stack) {
            return id;
        }
        let id = CallPathId(u32::try_from(self.paths.len()).expect("too many call paths"));
        self.interned.insert(self.stack.clone(), id);
        self.paths.push(self.stack.clone().into());
        id
    }

    /// The frames of an interned path (outermost first).
    pub fn frames(&self, id: CallPathId) -> Option<&[Frame]> {
        self.paths.get(id.0 as usize).map(|p| &p[..])
    }

    /// Renders a path as `a -> b -> c`.
    pub fn render(&self, id: CallPathId) -> String {
        match self.frames(id) {
            Some([]) => "<root>".to_owned(),
            Some(frames) => {
                frames.iter().map(Frame::to_string).collect::<Vec<_>>().join(" -> ")
            }
            None => format!("<unknown {id}>"),
        }
    }

    /// Number of distinct interned paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_zero() {
        let mut r = CallPathRecorder::new();
        assert_eq!(r.intern_current(), CallPathId::ROOT);
        assert_eq!(r.render(CallPathId::ROOT), "<root>");
    }

    #[test]
    fn same_path_same_id() {
        let mut r = CallPathRecorder::new();
        r.push(Frame::named("main"));
        r.push(Frame::named("forward"));
        let a = r.intern_current();
        r.pop();
        r.push(Frame::named("forward"));
        let b = r.intern_current();
        assert_eq!(a, b);
        r.push(Frame::named("fill"));
        let c = r.intern_current();
        assert_ne!(a, c);
        assert_eq!(r.render(c), "main -> forward -> fill");
    }

    #[test]
    fn frames_roundtrip() {
        let mut r = CallPathRecorder::new();
        r.push(Frame::located("f", "lib.rs", 10));
        let id = r.intern_current();
        let frames = r.frames(id).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].line, Some(10));
        assert!(r.render(id).contains("lib.rs:10"));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_pop_panics() {
        let mut r = CallPathRecorder::new();
        r.pop();
    }
}

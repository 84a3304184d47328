//! The rule catalog. Each rule is a pure function from a lexed
//! [`crate::SourceSet`] (plus [`crate::Config`]) to [`crate::Finding`]s;
//! nothing here touches the filesystem.

pub mod lint;
pub mod parallel;

//! Brendan-Gregg collapsed-stack export.
//!
//! One line per (stack, work-kind) pair with nonzero self weight:
//!
//! ```text
//! fig5;sim-kernel;outage_end;[segments] 1742
//! ```
//!
//! Frames are joined with `;`, the leaf is the bracketed [`WorkKind`]
//! label, and the weight follows a single space — loadable by any
//! flamegraph tooling that speaks the collapsed format. Lines are sorted
//! lexicographically, so equal profiles render to equal bytes: the
//! export is the unit the determinism tests compare across
//! `DCB_THREADS`.

use crate::{ProfNode, Profile, WorkKind};
use std::fmt::Write as _;

/// Characters a frame name must avoid to keep the format unambiguous.
const FORBIDDEN: [char; 6] = [';', ' ', '\t', '\n', '[', ']'];

/// Replaces any forbidden character with `_` so a hostile frame name
/// degrades the display instead of corrupting the format.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if FORBIDDEN.contains(&c) { '_' } else { c })
        .collect()
}

fn walk(node: &ProfNode, path: &mut Vec<String>, lines: &mut Vec<String>) {
    for kind in WorkKind::ALL {
        let w = node.self_weight(kind);
        if w == 0 {
            continue;
        }
        let mut line = String::new();
        for frame in path.iter() {
            line.push_str(frame);
            line.push(';');
        }
        let _ = write!(line, "[{}] {w}", kind.label());
        lines.push(line);
    }
    for child in &node.children {
        path.push(sanitize(&child.name));
        walk(child, path, lines);
        path.pop();
    }
}

/// Renders a [`Profile`] as sorted collapsed-stack lines. Deterministic:
/// equal profiles yield equal bytes. Root-attributed work (recorded
/// outside any frame) renders with a bare `[kind] w` stack.
#[must_use]
pub fn render(profile: &Profile) -> String {
    let mut lines = Vec::new();
    let mut path = Vec::new();
    walk(&profile.root, &mut path, &mut lines);
    lines.sort_unstable();
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfNode;

    fn leaf(name: &str, weights: [u64; 5]) -> ProfNode {
        ProfNode {
            name: name.to_string(),
            weights,
            children: Vec::new(),
        }
    }

    fn sample() -> Profile {
        Profile {
            root: ProfNode {
                name: String::new(),
                weights: [0, 0, 0, 7, 0],
                children: vec![ProfNode {
                    name: "fig5".to_string(),
                    weights: [0; 5],
                    children: vec![
                        leaf("locate", [0, 0, 30, 0, 0]),
                        leaf("sim-kernel", [0, 1742, 0, 0, 0]),
                    ],
                }],
            },
        }
    }

    #[test]
    fn render_is_sorted() {
        assert_eq!(
            render(&sample()),
            "[node-steps] 7\n\
             fig5;locate;[locate-iters] 30\n\
             fig5;sim-kernel;[segments] 1742\n"
        );
    }

    #[test]
    fn hostile_frame_names_are_sanitized_not_corrupting() {
        let profile = Profile {
            root: ProfNode {
                name: String::new(),
                weights: [0; 5],
                children: vec![leaf("a;b [x]", [1, 0, 0, 0, 0])],
            },
        };
        assert_eq!(render(&profile), "a_b__x_;[cycles] 1\n");
    }
}

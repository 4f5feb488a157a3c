//! Non-test lines of code per crate: lines under `crates/<name>/src`
//! that are neither blank nor comment-only, outside `#[cfg(test)]` items
//! and the test-module files they declare.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The crates counted, by directory name under `crates/`.
pub const CRATES: [&str; 12] = [
    "bench",
    "cloud",
    "core",
    "genomics",
    "kb",
    "lint",
    "metrics",
    "sched",
    "sim",
    "spans",
    "tracestore",
    "workload",
];

/// Non-test LoC of the crate at `crate_dir` (0 if it has no `src`).
pub fn nontest_loc(crate_dir: &Path) -> io::Result<u64> {
    let mut files = Vec::new();
    collect_rs(&crate_dir.join("src"), &mut files)?;
    files.sort();
    let mut test_files = Vec::new();
    let mut counted = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path)?;
        let (n, test_mods) = count(&src);
        // `#[cfg(test)] mod x;` in `dir/mod.rs` or `dir/lib.rs` names
        // `dir/x.rs`; in `dir/y.rs` it names `dir/y/x.rs`.
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        let dir = match stem {
            "mod" | "lib" | "main" => path.parent().map(Path::to_path_buf),
            _ => path.parent().map(|p| p.join(stem)),
        };
        for m in test_mods {
            if let Some(d) = &dir {
                test_files.push(d.join(format!("{m}.rs")));
                test_files.push(d.join(&m).join("mod.rs"));
            }
        }
        counted.push((path.clone(), n));
    }
    Ok(counted.into_iter().filter(|(p, _)| !test_files.contains(p)).map(|(_, n)| n).sum())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Counts one file's code lines outside `#[cfg(test)]` items; also
/// returns the names of out-of-line test modules it declares.
fn count(src: &str) -> (u64, Vec<String>) {
    let lines: Vec<&str> = src.lines().collect();
    let (mut i, mut n, mut test_mods) = (0, 0, Vec::new());
    while i < lines.len() {
        let t = lines[i].trim();
        if t == "#[cfg(test)]" {
            let end = skip_item(&lines, i + 1);
            let item: String = lines[i + 1..end].join(" ");
            if let Some(name) = item.trim().strip_prefix("mod ").and_then(|r| r.strip_suffix(';')) {
                test_mods.push(name.trim().to_string());
            }
            i = end;
            continue;
        }
        if !t.is_empty() && !t.starts_with("//") {
            n += 1;
        }
        i += 1;
    }
    (n, test_mods)
}

/// Index of the first line after the item starting at `start`: the item
/// ends at a `;` outside braces, or when its first brace block closes.
/// Braces inside strings, char literals and comments do not count.
fn skip_item(lines: &[&str], start: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    let mut in_str = false;
    for (i, line) in lines.iter().enumerate().skip(start) {
        let b = line.as_bytes();
        let mut j = 0;
        while j < b.len() {
            let c = b[j];
            if in_str {
                match c {
                    b'\\' => j += 1,
                    b'"' => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    b'/' if b.get(j + 1) == Some(&b'/') => break,
                    b'"' => in_str = true,
                    b'\'' if b.get(j + 1) == Some(&b'\\') => {
                        j += 2;
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                    }
                    b'\'' if b.get(j + 2) == Some(&b'\'') => j += 2,
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    b';' if depth == 0 && !opened => return i + 1,
                    _ => {}
                }
            }
            j += 1;
        }
        if opened && depth <= 0 {
            return i + 1;
        }
    }
    lines.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_and_comments_are_not_counted() {
        let src = "// doc\nfn a() {\n    let s = \"}\";\n}\n\n#[cfg(test)]\nmod tests {\n    fn b() { let c = '{'; }\n}\n#[cfg(test)]\nmod more;\nfn z() {}\n";
        let (n, mods) = count(src);
        assert_eq!(n, 4, "fn a (3 lines) and fn z");
        assert_eq!(mods, vec!["more".to_string()]);
    }
}

//! The hardware and build a set of numbers came from.  Topology is part of
//! the result ("OLTP on Hardware Islands"): numbers are comparable only
//! between runs whose fingerprints agree.

use std::path::Path;
use std::process::Command;

use plp_core::topology::CpuTopology;

use crate::json::Value;

fn first_line_of(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The file system holding `path`, from `/proc/mounts` (longest mount point
/// that is a prefix of the path).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// Everything but the run's own parameters (seed, window length), which the
/// caller adds.
pub fn fingerprint(out_dir: &Path) -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let islands = CpuTopology::detect()
        .islands()
        .into_iter()
        .map(|island| {
            Value::Array(
                island
                    .into_iter()
                    .map(|cpu| Value::Number(cpu as f64))
                    .collect(),
            )
        })
        .collect();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", Value::Number(nproc as f64)),
        ("cpu_model", Value::String(cpu_model())),
        ("islands", Value::Array(islands)),
        ("kernel", Value::String(kernel)),
        ("rustc", Value::String(first_line_of("rustc", &["-V"]))),
        ("log_dir_filesystem", Value::String(filesystem_of(out_dir))),
        (
            "git_commit",
            Value::String(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

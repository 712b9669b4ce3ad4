//! CPU topology discovery: which CPUs the host has and how they group into
//! islands (NUMA node, then package).  The benchmark's hardware fingerprint
//! records it, because numbers are comparable only between runs on the same
//! layout ("OLTP on Hardware Islands", PAPERS.md).
//!
//! [`CpuTopology::detect`] enumerates CPUs with their package (socket) and
//! NUMA node from sysfs, falling back to `/proc/cpuinfo`, falling back to a
//! flat single-island topology.  Detection never fails; it degrades.

/// One logical CPU and where it sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuInfo {
    /// Kernel CPU id.
    cpu: usize,
    /// Physical package (socket) id; 0 when unknown.
    package: usize,
    /// NUMA node id; 0 when unknown.
    node: usize,
}

impl CpuInfo {
    /// The island key: CPUs sharing it are "close" (same node and socket).
    fn island(&self) -> (usize, usize) {
        (self.node, self.package)
    }
}

/// The host's CPU layout, as well as it could be discovered.
#[derive(Debug, Clone)]
pub struct CpuTopology {
    cpus: Vec<CpuInfo>,
}

impl CpuTopology {
    /// Detect the host topology: sysfs first, `/proc/cpuinfo` second, and a
    /// flat `available_parallelism`-sized single island as the last resort.
    pub fn detect() -> Self {
        Self::from_sysfs()
            .or_else(Self::from_proc_cpuinfo)
            .unwrap_or_else(|| {
                let n = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                Self {
                    cpus: (0..n)
                        .map(|cpu| CpuInfo {
                            cpu,
                            package: 0,
                            node: 0,
                        })
                        .collect(),
                }
            })
    }

    fn from_sysfs() -> Option<Self> {
        let online = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
        let cpu_ids = parse_cpulist(&online)?;
        if cpu_ids.is_empty() {
            return None;
        }
        // NUMA node per CPU, from the node directories' cpulists.  Missing
        // node directories (no NUMA, or sysfs partially mounted) leave
        // everything on node 0.
        let mut node_of = std::collections::HashMap::new();
        if let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(node_id) = name
                    .strip_prefix("node")
                    .and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) else {
                    continue;
                };
                for cpu in parse_cpulist(&list).unwrap_or_default() {
                    node_of.insert(cpu, node_id);
                }
            }
        }
        let cpus = cpu_ids
            .into_iter()
            .map(|cpu| {
                let package = std::fs::read_to_string(format!(
                    "/sys/devices/system/cpu/cpu{cpu}/topology/physical_package_id"
                ))
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or(0);
                CpuInfo {
                    cpu,
                    package,
                    node: node_of.get(&cpu).copied().unwrap_or(0),
                }
            })
            .collect();
        Some(Self { cpus })
    }

    fn from_proc_cpuinfo() -> Option<Self> {
        let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
        let topo = parse_proc_cpuinfo(&text);
        (!topo.cpus.is_empty()).then_some(topo)
    }

    /// CPU ids grouped by island (NUMA node, then package), each group and
    /// the group list sorted — so island 0 is the lowest-numbered node.
    pub fn islands(&self) -> Vec<Vec<usize>> {
        let mut keys: Vec<(usize, usize)> = self.cpus.iter().map(|c| c.island()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.iter()
            .map(|key| {
                let mut members: Vec<usize> = self
                    .cpus
                    .iter()
                    .filter(|c| c.island() == *key)
                    .map(|c| c.cpu)
                    .collect();
                members.sort_unstable();
                members
            })
            .collect()
    }
}

/// Parse a kernel cpulist string (`"0-3,7,9-10"`).  `None` on malformed
/// input (detection then falls through to the next source).
fn parse_cpulist(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo || hi - lo > 4096 {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

/// Parse `/proc/cpuinfo` records: `processor` starts a CPU, `physical id`
/// gives its package.  NUMA nodes are not in cpuinfo; node = package is the
/// usual approximation on multi-socket hosts.
fn parse_proc_cpuinfo(text: &str) -> CpuTopology {
    let mut cpus = Vec::new();
    let mut current: Option<CpuInfo> = None;
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "processor" => {
                if let Some(c) = current.take() {
                    cpus.push(c);
                }
                if let Ok(cpu) = value.parse::<usize>() {
                    current = Some(CpuInfo {
                        cpu,
                        package: 0,
                        node: 0,
                    });
                }
            }
            "physical id" => {
                if let (Some(c), Ok(package)) = (current.as_mut(), value.parse::<usize>()) {
                    c.package = package;
                    c.node = package;
                }
            }
            _ => {}
        }
    }
    if let Some(c) = current.take() {
        cpus.push(c);
    }
    CpuTopology { cpus }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parses_ranges_and_singles() {
        assert_eq!(
            parse_cpulist("0-3,7,9-10"),
            Some(vec![0, 1, 2, 3, 7, 9, 10])
        );
        assert_eq!(parse_cpulist("0"), Some(vec![0]));
        assert_eq!(parse_cpulist("0-0"), Some(vec![0]));
        assert_eq!(parse_cpulist(" 2-4 \n"), Some(vec![2, 3, 4]));
        assert_eq!(parse_cpulist("4-2"), None);
        assert_eq!(parse_cpulist("x"), None);
    }

    #[test]
    fn proc_cpuinfo_parses_packages() {
        let text = "\
processor\t: 0\nmodel name\t: Example\nphysical id\t: 0\n\n\
processor\t: 1\nphysical id\t: 0\n\n\
processor\t: 2\nphysical id\t: 1\n\n\
processor\t: 3\nphysical id\t: 1\n";
        let topo = parse_proc_cpuinfo(text);
        assert_eq!(topo.cpus.len(), 4);
        assert_eq!(topo.islands(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn detect_never_fails() {
        // On any host — full sysfs, container with partial sysfs, or no
        // Linux at all — detection yields at least one island of CPUs.
        let islands = CpuTopology::detect().islands();
        assert!(!islands.is_empty() && islands.iter().all(|i| !i.is_empty()));
    }
}

//! Host facts read from the kernel's view of this process.

/// `/proc/self/status` of this process (empty where there is none).
fn status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` where the kernel
/// does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let kib: f64 = field(&status(), "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPUs this process may run on, as `nproc` counts them (the affinity
/// mask); falls back to `available_parallelism`.
pub fn nproc() -> usize {
    field(&status(), "Cpus_allowed_list")
        .and_then(count_cpu_list)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Counts the CPUs of a kernel CPU list such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()?.checked_sub(a.parse().ok()?)? + 1,
            None => part.parse::<usize>().map(|_| 1).ok()?,
        };
    }
    (n > 0).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(count_cpu_list("0-1"), Some(2));
        assert_eq!(count_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpu_list("5"), Some(1));
        assert_eq!(count_cpu_list(""), None);
        assert_eq!(count_cpu_list("3-1"), None);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nCpus_allowed_list:\t0-1\n";
        assert_eq!(field(s, "VmHWM"), Some("2048 kB"));
        assert_eq!(field(s, "Cpus_allowed_list"), Some("0-1"));
        assert_eq!(field(s, "Missing"), None);
    }
}

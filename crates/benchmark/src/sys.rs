//! `/proc` readers and the drift sentinel. Linux only; every reader
//! returns `None` where the file or field is missing, and the report
//! then says so instead of inventing a number.

use std::path::Path;
use std::time::Instant;

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|l| l.strip_prefix(key).map(|rest| rest.trim().to_string()))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM:")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of this process, all threads (reaped ones
/// included), in milliseconds. Assumes the usual 100 Hz `USER_HZ`.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = stat.rsplit_once(") ")?.1;
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Tasks created since boot, system-wide (`processes` in `/proc/stat`,
/// which counts thread creation too). The harness itself is one thread
/// and the box runs nothing else, so a delta over a timed section is
/// the number of threads the engine spawned.
pub fn tasks_created() -> Option<u64> {
    proc_field("/proc/stat", "processes")?.parse().ok()
}

/// Context switches since boot, system-wide.
pub fn context_switches() -> Option<u64> {
    proc_field("/proc/stat", "ctxt")?.parse().ok()
}

/// The CPU model string of the first core.
pub fn cpu_model() -> Option<String> {
    let field = proc_field("/proc/cpuinfo", "model name")?;
    Some(field.trim_start_matches(':').trim().to_string())
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fstype)) =
            (head.split_whitespace().nth(4), tail.split_whitespace().next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fstype)| fstype)
}

/// The drift sentinel: a fixed xorshift loop that touches no repo code,
/// timed in milliseconds. Taken before and after a workload, it tells a
/// slow machine from slow code.
pub fn ref_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 88_172_645_463_325_252;
    for _ in 0..5_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_ms().is_some());
        assert!(tasks_created().is_some_and(|n| n > 0));
        assert!(context_switches().is_some());
        assert!(fs_type(&std::env::temp_dir()).is_some());
    }
}

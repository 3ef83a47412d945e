//! What the host did around a run: its core count and the time its
//! hypervisor gave this guest's cores to other guests (steal).

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds of steal summed over every core since boot, or `None` where
/// `/proc/stat` does not report it.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(&stat)
}

/// The steal column (the eighth value) of the `cpu` line, in seconds.
fn parse_steal(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  1149058 0 103377 744016 444 0 20175 59921 0 0\n\
                    cpu0 584934 0 51730 361488 281 0 9954 29870 0 0\n";
        assert_eq!(parse_steal(stat), Some(599.21));
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal(""), None);
    }
}

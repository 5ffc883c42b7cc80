//! Reads the trainer's rendered simulated-time dispatch trace
//! (`RunResult::trace`) into device idle and merge shares.

/// Simulated-time shares of one traced training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimShares {
    /// Devices that appear in the trace.
    pub devices: usize,
    /// Latest span end, simulated seconds.
    pub makespan_s: f64,
    /// Share of device-time (`devices × makespan`) spent neither training a
    /// batch nor in a merge: barrier waits, and time after a device loss.
    pub idle_share: f64,
    /// Share of the makespan spent in merges (a merge blocks every device).
    pub merge_share: f64,
    /// Merges in the trace.
    pub merges: usize,
    /// Mean simulated merge duration, seconds.
    pub mean_merge_s: f64,
}

/// One parsed trace line: `[start - end] gpuN label`.
fn parse_line(line: &str) -> Option<(f64, f64, usize, &str)> {
    let rest = line.trim_start().strip_prefix('[')?;
    let (times, rest) = rest.split_once(']')?;
    let (start, end) = times.split_once(" - ")?;
    let (device, label) = rest.trim_start().split_once(' ')?;
    let device = device.strip_prefix("gpu")?.parse().ok()?;
    Some((
        start.trim().parse().ok()?,
        end.trim().parse().ok()?,
        device,
        label,
    ))
}

/// Parses the rendered trace. Batch spans count as busy on their device;
/// merge spans (labels starting with `merge`) count once on the fleet
/// clock. `None` when the trace holds no parseable span.
pub fn parse(rendered: &str) -> Option<SimShares> {
    let mut busy: Vec<f64> = Vec::new();
    let mut merges: Vec<(f64, f64)> = Vec::new();
    let mut makespan = 0.0f64;
    for (start, end, device, label) in rendered.lines().filter_map(parse_line) {
        makespan = makespan.max(end);
        if device >= busy.len() {
            busy.resize(device + 1, 0.0);
        }
        if label.starts_with("merge") {
            merges.push((start, end));
        } else {
            busy[device] += end - start;
        }
    }
    if busy.is_empty() || makespan <= 0.0 {
        return None;
    }
    let merge_time: f64 = merges.iter().map(|(a, b)| b - a).sum();
    let n = busy.len() as f64;
    let device_time = n * makespan;
    let used = busy.iter().sum::<f64>() + n * merge_time;
    Some(SimShares {
        devices: busy.len(),
        makespan_s: makespan,
        idle_share: (1.0 - used / device_time).max(0.0),
        merge_share: merge_time / makespan,
        merges: merges.len(),
        mean_merge_s: if merges.is_empty() {
            0.0
        } else {
            merge_time / merges.len() as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
[  0.000000 -   0.000400] gpu0 batch 0 (size 48, nnz 4129, lr 0.1000)
[  0.000000 -   0.000600] gpu1 batch 1 (size 48, nnz 4050, lr 0.1000)
[  0.000400 -   0.000800] gpu0 batch 2 (size 48, nnz 3480, lr 0.1000)
[  0.000800 -   0.001000] gpu0 merge (weights [0.5, 0.5], perturbed false)
[  0.001000 -   0.001500] gpu1 batch 3 (size 36, nnz 2558, lr 0.0750)
[  0.001500 -   0.002000] gpu1 merge (survivors [1], weights [0.0, 1.0], perturbed false)
";

    #[test]
    fn shares_from_a_rendered_trace() {
        let s = parse(TRACE).unwrap();
        assert_eq!(s.devices, 2);
        assert_eq!(s.merges, 2);
        assert!((s.makespan_s - 0.002).abs() < 1e-12);
        // Merges: 0.2 ms + 0.5 ms of a 2 ms makespan.
        assert!((s.merge_share - 0.35).abs() < 1e-9, "{s:?}");
        assert!((s.mean_merge_s - 0.00035).abs() < 1e-12);
        // Busy: gpu0 0.8 ms, gpu1 1.1 ms; merges 0.7 ms on both devices.
        // Idle = 1 - (1.9 + 1.4) / 4.0.
        assert!((s.idle_share - 0.175).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn unparseable_or_empty_traces_yield_none() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("not a trace line\n[x - y] gpu0 batch"), None);
    }
}

//! Default-configuration guard and the machine tag stamped on every result.

use std::path::Path;

/// Environment variables that switch the engine away from its default
/// configuration or redirect its inputs. The benchmark refuses to run when
/// any is set, so every number measures the default engine.
pub const FORCING_VARS: [&str; 6] = [
    "EGG_FORCE_SCALAR",
    "EGG_FORCE_UNFUSED",
    "EGG_FORCE_SCOPED",
    "EGG_NUM_SHARDS",
    "EGG_THREADS",
    "EGG_DATA_DIR",
];

/// The forcing variables present in the environment.
pub fn forcing_vars_set() -> Vec<&'static str> {
    FORCING_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// What the numbers were measured on.
pub struct MachineTag {
    pub cores: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub rustflags: String,
    pub git_sha: String,
}

impl MachineTag {
    pub fn detect() -> Self {
        let (cpu_model, avx2) = cpu();
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2,
            rustflags: std::env::var("RUSTFLAGS").unwrap_or_default(),
            git_sha: git_sha().unwrap_or_else(|| "none".to_owned()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu_model\": {}, \"avx2\": {}, \"rustflags\": {}, \"git_sha\": {}}}",
            self.cores,
            json_str(&self.cpu_model),
            self.avx2,
            json_str(&self.rustflags),
            json_str(&self.git_sha)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The processor's brand string (CPUID leaves 0x8000_0002..4) and AVX2
/// flag. Asked of the processor rather than read from `/proc/cpuinfo`, so
/// the benchmark reads no file outside its checkout.
#[cfg(target_arch = "x86_64")]
fn cpu() -> (String, bool) {
    use std::arch::x86_64::__cpuid;
    let model = if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        "unknown".to_owned()
    } else {
        let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
            .map(__cpuid)
            .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
            .flat_map(u32::to_le_bytes)
            .collect();
        String::from_utf8_lossy(&bytes)
            .trim_matches('\0')
            .trim()
            .to_owned()
    };
    (model, std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu() -> (String, bool) {
    ("unknown".to_owned(), false)
}

/// The commit checked out in the working directory's git repository,
/// read offline from `./.git` (loose ref or `packed-refs`); `None` when
/// the directory is not a repository root.
fn git_sha() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

//! On-disk deployment configuration: committee files and key files.
//!
//! A real deployment is described by one *committee file* shared by every
//! process plus one private *key file* per validator. Both are line-based
//! text (comments start with `#`), so operators can write them by hand and
//! the launcher can generate them without a serialization dependency:
//!
//! ```text
//! # committee file
//! scheme insecure
//! system bullshark
//! workers 1
//! gc_depth 200
//! snapshot_interval 32
//! validator 0 <pk hex> 127.0.0.1:9000 127.0.0.1:9100
//! validator 1 <pk hex> 127.0.0.1:9001 127.0.0.1:9101
//! ...
//!
//! # key file
//! scheme insecure
//! seed <32-byte hex>
//! ```
//!
//! The validator line lists the primary's socket address followed by one
//! address per worker slot; every host of every process must agree on this
//! file (it fixes the flat `NodeId` layout used on the wire).

use narwhal::{AddressBook, NarwhalConfig};
use nt_crypto::{KeyPair, PublicKey, Scheme};
use nt_network::{NodeId, PeerAddr};
use nt_types::{Committee, ValidatorId, ValidatorInfo, WorkerId};
use std::fmt;

/// Which consensus rides on the Narwhal DAG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Tusk: asynchronous, shared-coin anchors (§5).
    Tusk,
    /// Bullshark with the round-robin leader schedule.
    Bullshark,
    /// Bullshark with the Shoal-style reputation schedule.
    BullsharkRep,
    /// Pipelined Bullshark (anchor candidate every round, reputation
    /// re-anchoring).
    BullsharkPipelined,
}

impl SystemKind {
    fn as_str(&self) -> &'static str {
        match self {
            SystemKind::Tusk => "tusk",
            SystemKind::Bullshark => "bullshark",
            SystemKind::BullsharkRep => "bullshark-rep",
            SystemKind::BullsharkPipelined => "bullshark-pipelined",
        }
    }
}

impl std::str::FromStr for SystemKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "tusk" => Ok(SystemKind::Tusk),
            "bullshark" => Ok(SystemKind::Bullshark),
            "bullshark-rep" => Ok(SystemKind::BullsharkRep),
            "bullshark-pipelined" => Ok(SystemKind::BullsharkPipelined),
            other => Err(ConfigError::new(format!("unknown system '{other}'"))),
        }
    }
}

/// A malformed committee or key file.
#[derive(Debug)]
pub struct ConfigError(String);

impl ConfigError {
    fn new(msg: impl Into<String>) -> Self {
        ConfigError(msg.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// One committee member's identity and socket addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidatorEntry {
    /// Signing identity.
    pub public: PublicKey,
    /// Where the primary listens.
    pub primary: PeerAddr,
    /// Where each worker slot listens (length = committee worker count).
    pub workers: Vec<PeerAddr>,
}

/// The full deployment description every process shares.
#[derive(Clone, Debug)]
pub struct CommitteeConfig {
    /// Signature scheme of the committee.
    pub scheme: Scheme,
    /// The consensus layered on the DAG.
    pub system: SystemKind,
    /// Worker slots per validator.
    pub workers: u32,
    /// Protocol parameters (defaults plus any file overrides).
    pub narwhal: NarwhalConfig,
    /// The members, in `ValidatorId` order.
    pub validators: Vec<ValidatorEntry>,
}

impl CommitteeConfig {
    /// Parses a committee file.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut scheme = Scheme::Ed25519;
        let mut system = SystemKind::Bullshark;
        let mut workers = 1u32;
        let mut narwhal = NarwhalConfig::default();
        let mut validators: Vec<(u32, ValidatorEntry)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line");
            let fail =
                |what: &str| ConfigError::new(format!("line {}: {what}: '{raw}'", lineno + 1));
            match key {
                "scheme" => {
                    scheme = match parts.next() {
                        Some("insecure") => Scheme::Insecure,
                        Some("ed25519") => Scheme::Ed25519,
                        _ => return Err(fail("expected 'insecure' or 'ed25519'")),
                    };
                }
                "system" => {
                    system = parts
                        .next()
                        .ok_or_else(|| fail("missing system name"))?
                        .parse()?;
                }
                "workers" => {
                    workers = parse_num(parts.next()).ok_or_else(|| fail("bad worker count"))?;
                }
                "gc_depth" => {
                    narwhal.gc_depth =
                        parse_num(parts.next()).ok_or_else(|| fail("bad gc_depth"))?;
                }
                "snapshot_interval" => {
                    narwhal.snapshot_interval =
                        parse_num(parts.next()).ok_or_else(|| fail("bad snapshot_interval"))?;
                }
                "batch_bytes" => {
                    narwhal.batch_bytes =
                        parse_num(parts.next()).ok_or_else(|| fail("bad batch_bytes"))?;
                }
                "max_batch_delay_ms" => {
                    let ms: u64 =
                        parse_num(parts.next()).ok_or_else(|| fail("bad max_batch_delay_ms"))?;
                    narwhal.max_batch_delay = ms * 1_000_000;
                }
                "max_header_delay_ms" => {
                    let ms: u64 =
                        parse_num(parts.next()).ok_or_else(|| fail("bad max_header_delay_ms"))?;
                    narwhal.max_header_delay = ms * 1_000_000;
                }
                "validator" => {
                    let index: u32 =
                        parse_num(parts.next()).ok_or_else(|| fail("bad validator index"))?;
                    let public = PublicKey(
                        parse_hex32(parts.next().unwrap_or(""))
                            .ok_or_else(|| fail("bad public key hex"))?,
                    );
                    let primary: PeerAddr = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| fail("bad primary address"))?;
                    let worker_addrs: Result<Vec<PeerAddr>, _> =
                        parts.map(|s| s.parse::<PeerAddr>()).collect();
                    let worker_addrs = worker_addrs.map_err(|_| fail("bad worker address"))?;
                    validators.push((
                        index,
                        ValidatorEntry {
                            public,
                            primary,
                            workers: worker_addrs,
                        },
                    ));
                }
                _ => return Err(fail("unknown directive")),
            }
        }
        validators.sort_by_key(|(index, _)| *index);
        for (want, (got, _)) in validators.iter().enumerate() {
            if *got != want as u32 {
                return Err(ConfigError::new(format!(
                    "validator indices must be dense from 0; missing {want}"
                )));
            }
        }
        let validators: Vec<ValidatorEntry> =
            validators.into_iter().map(|(_, entry)| entry).collect();
        if validators.is_empty() {
            return Err(ConfigError::new("no validators in committee file"));
        }
        for (index, entry) in validators.iter().enumerate() {
            if entry.workers.len() != workers as usize {
                return Err(ConfigError::new(format!(
                    "validator {index} lists {} worker addresses, committee declares {workers}",
                    entry.workers.len()
                )));
            }
        }
        Ok(CommitteeConfig {
            scheme,
            system,
            workers,
            narwhal,
            validators,
        })
    }

    /// Serializes back into the file format [`CommitteeConfig::parse`] reads.
    pub fn to_file_string(&self) -> String {
        let mut out = String::from("# narwhal committee\n");
        out.push_str(&format!(
            "scheme {}\n",
            match self.scheme {
                Scheme::Insecure => "insecure",
                Scheme::Ed25519 => "ed25519",
            }
        ));
        out.push_str(&format!("system {}\n", self.system.as_str()));
        out.push_str(&format!("workers {}\n", self.workers));
        out.push_str(&format!("gc_depth {}\n", self.narwhal.gc_depth));
        out.push_str(&format!(
            "snapshot_interval {}\n",
            self.narwhal.snapshot_interval
        ));
        out.push_str(&format!("batch_bytes {}\n", self.narwhal.batch_bytes));
        out.push_str(&format!(
            "max_batch_delay_ms {}\n",
            self.narwhal.max_batch_delay / 1_000_000
        ));
        out.push_str(&format!(
            "max_header_delay_ms {}\n",
            self.narwhal.max_header_delay / 1_000_000
        ));
        for (index, entry) in self.validators.iter().enumerate() {
            out.push_str(&format!("validator {index} {}", hex32(&entry.public.0)));
            out.push_str(&format!(" {}", entry.primary));
            for addr in &entry.workers {
                out.push_str(&format!(" {addr}"));
            }
            out.push('\n');
        }
        out
    }

    /// The committee these entries describe.
    pub fn committee(&self) -> Committee {
        Committee::new(
            self.validators
                .iter()
                .map(|entry| ValidatorInfo {
                    public: entry.public,
                    num_workers: self.workers,
                })
                .collect(),
            self.scheme,
        )
    }

    /// The flat host-id layout of this deployment.
    pub fn address_book(&self) -> AddressBook {
        AddressBook::new(self.validators.len(), self.workers)
    }

    /// Socket address of flat host `node`, if it exists in the layout.
    pub fn addr_of(&self, node: NodeId) -> Option<PeerAddr> {
        let book = self.address_book();
        if let Some(v) = book.primary_of(node) {
            return Some(self.validators[v.0 as usize].primary);
        }
        let (v, w) = book.worker_of(node)?;
        self.validators
            .get(v.0 as usize)?
            .workers
            .get(w.0 as usize)
            .copied()
    }

    /// The validator index owning `public`, if a member.
    pub fn id_of(&self, public: &PublicKey) -> Option<ValidatorId> {
        self.validators
            .iter()
            .position(|entry| entry.public == *public)
            .map(|index| ValidatorId(index as u32))
    }

    /// All `(NodeId, PeerAddr)` pairs of the deployment.
    pub fn all_hosts(&self) -> Vec<(NodeId, PeerAddr)> {
        let book = self.address_book();
        let mut out = Vec::with_capacity(book.total_hosts());
        for (index, entry) in self.validators.iter().enumerate() {
            let v = ValidatorId(index as u32);
            out.push((book.primary(v), entry.primary));
            for (w, addr) in entry.workers.iter().enumerate() {
                out.push((book.worker(v, WorkerId(w as u32)), *addr));
            }
        }
        out
    }
}

/// A validator's private key material (the signing seed, not derived keys).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFile {
    /// Scheme the seed is for (must match the committee file).
    pub scheme: Scheme,
    /// The 32-byte signing seed.
    pub seed: [u8; 32],
}

impl KeyFile {
    /// Parses a key file.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut scheme = None;
        let mut seed = None;
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("scheme") => {
                    scheme = match parts.next() {
                        Some("insecure") => Some(Scheme::Insecure),
                        Some("ed25519") => Some(Scheme::Ed25519),
                        _ => return Err(ConfigError::new("bad scheme in key file")),
                    };
                }
                Some("seed") => {
                    seed = parse_hex32(parts.next().unwrap_or(""));
                    if seed.is_none() {
                        return Err(ConfigError::new("bad seed hex in key file"));
                    }
                }
                _ => return Err(ConfigError::new(format!("unknown key-file line '{raw}'"))),
            }
        }
        Ok(KeyFile {
            scheme: scheme.ok_or_else(|| ConfigError::new("key file missing 'scheme'"))?,
            seed: seed.ok_or_else(|| ConfigError::new("key file missing 'seed'"))?,
        })
    }

    /// Serializes back into the file format [`KeyFile::parse`] reads.
    pub fn to_file_string(&self) -> String {
        format!(
            "# narwhal validator key\nscheme {}\nseed {}\n",
            match self.scheme {
                Scheme::Insecure => "insecure",
                Scheme::Ed25519 => "ed25519",
            },
            hex32(&self.seed)
        )
    }

    /// Derives the keypair this file holds.
    pub fn keypair(&self) -> KeyPair {
        KeyPair::from_seed(self.scheme, self.seed)
    }
}

fn parse_num<T: std::str::FromStr>(s: Option<&str>) -> Option<T> {
    s.and_then(|s| s.parse().ok())
}

fn hex32(bytes: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> CommitteeConfig {
        let keypairs: Vec<KeyPair> = (0..4)
            .map(|i| KeyPair::for_index(Scheme::Insecure, i))
            .collect();
        CommitteeConfig {
            scheme: Scheme::Insecure,
            system: SystemKind::Bullshark,
            workers: 2,
            narwhal: NarwhalConfig::default(),
            validators: keypairs
                .iter()
                .enumerate()
                .map(|(i, kp)| ValidatorEntry {
                    public: kp.public(),
                    primary: format!("127.0.0.1:{}", 9000 + i).parse().unwrap(),
                    workers: (0..2)
                        .map(|w| format!("127.0.0.1:{}", 9100 + 10 * i + w).parse().unwrap())
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn committee_file_round_trip() {
        let config = sample_config();
        let text = config.to_file_string();
        let back = CommitteeConfig::parse(&text).expect("round trip");
        assert_eq!(back.scheme, config.scheme);
        assert_eq!(back.system, config.system);
        assert_eq!(back.workers, config.workers);
        assert_eq!(back.validators, config.validators);
        assert_eq!(back.narwhal.gc_depth, config.narwhal.gc_depth);
    }

    #[test]
    fn key_file_round_trip() {
        let key = KeyFile {
            scheme: Scheme::Insecure,
            seed: [7u8; 32],
        };
        let back = KeyFile::parse(&key.to_file_string()).expect("round trip");
        assert_eq!(back, key);
        assert_eq!(back.keypair().public(), key.keypair().public());
    }

    #[test]
    fn layout_maps_nodes_to_addresses() {
        let config = sample_config();
        let book = config.address_book();
        assert_eq!(config.all_hosts().len(), book.total_hosts());
        assert_eq!(
            config.addr_of(book.primary(ValidatorId(2))).unwrap(),
            config.validators[2].primary
        );
        assert_eq!(
            config
                .addr_of(book.worker(ValidatorId(1), WorkerId(1)))
                .unwrap(),
            config.validators[1].workers[1]
        );
        assert!(config.addr_of(book.total_hosts()).is_none());
    }

    #[test]
    fn id_of_finds_members() {
        let config = sample_config();
        let kp = KeyPair::for_index(Scheme::Insecure, 3);
        assert_eq!(config.id_of(&kp.public()), Some(ValidatorId(3)));
        let stranger = KeyPair::for_index(Scheme::Insecure, 99);
        assert_eq!(config.id_of(&stranger.public()), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "scheme rot13\n",
            "system pbft\n",
            "validator x ff 127.0.0.1:1\n",
            "validator 0 deadbeef 127.0.0.1:1\n",
            "frobnicate 3\n",
            "",
        ] {
            assert!(CommitteeConfig::parse(bad).is_err(), "accepted: {bad:?}");
        }
        assert!(KeyFile::parse("scheme insecure\n").is_err(), "missing seed");
    }

    #[test]
    fn removed_finwhale_keyword_is_a_config_error() {
        let text = sample_config()
            .to_file_string()
            .replace("system bullshark", "system finwhale");
        assert!(text.contains("system finwhale\n"));
        let err = CommitteeConfig::parse(&text).expect_err("finwhale is no longer a system");
        assert_eq!(err.to_string(), "config error: unknown system 'finwhale'");
    }

    #[test]
    fn sparse_validator_indices_rejected() {
        let config = sample_config();
        let text = config
            .to_file_string()
            .replace("validator 1", "validator 9");
        assert!(CommitteeConfig::parse(&text).is_err());
    }
}

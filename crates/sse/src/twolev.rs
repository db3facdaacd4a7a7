//! 2Lev — static, read-efficient SSE (Cash et al., NDSS 2014; the Clusion
//! library's workhorse index).
//!
//! Two-level layout, as the name says:
//!
//! * a **dictionary** keyed by PRF labels: small postings lists are stored
//!   inline; large lists store (server-decryptable) pointers into
//! * an **array** of fixed-size encrypted buckets, globally shuffled at
//!   setup so bucket positions reveal nothing about keyword grouping.
//!
//! The dictionary entry is sealed under a per-keyword *unlock* key that
//! only travels to the server inside a search token — so before any search
//! the server sees just an opaque dictionary and a shuffled bucket array
//! (snapshot security), and each search leaks the access pattern of one
//! keyword (its bucket positions and count), never document ids: postings
//! buckets are encrypted under a client-only key.

use datablinder_kvstore::KvStore;
use datablinder_primitives::gcm::AesGcm;
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::prf::{HmacPrf, Prf};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::inverted::InvertedIndex;
use crate::{DocId, SseError};
use datablinder_codec::{Reader, Writer};

/// Entries per array bucket (postings are padded to a multiple of this).
pub const BUCKET_CAPACITY: usize = 8;
/// Lists up to this length are inlined in the dictionary.
pub const INLINE_THRESHOLD: usize = BUCKET_CAPACITY;

/// Padding id marking unused bucket slots.
const PAD_ID: [u8; 16] = [0xFF; 16];

/// A search token: the dictionary label plus the unlock key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevToken {
    /// Dictionary label `PRF(K_w, "label")`.
    pub label: [u8; 32],
    /// Key that lets the server open the dictionary entry (pointers only).
    pub unlock: [u8; 32],
}

impl TwoLevToken {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.label).bytes(&self.unlock);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let label = r.array::<32>()?;
        let unlock = r.array::<32>()?;
        r.finish()?;
        Ok(TwoLevToken { label, unlock })
    }
}

/// The gateway-side half: key material and token/bucket cryptography.
pub struct TwoLevClient {
    prf: HmacPrf,
    master: SymmetricKey,
}

impl TwoLevClient {
    /// Creates a client.
    pub fn new(key: &SymmetricKey) -> Self {
        TwoLevClient { prf: HmacPrf::new(key.derive(b"2lev/prf", 32)), master: key.derive(b"2lev/enc", 32) }
    }

    fn label(&self, keyword: &[u8]) -> [u8; 32] {
        self.prf.eval_parts(&[b"label", keyword])
    }

    fn unlock_key(&self, keyword: &[u8]) -> [u8; 32] {
        self.prf.eval_parts(&[b"unlock", keyword])
    }

    /// Per-keyword bucket cipher (client-only): one derivation and key
    /// schedule per setup keyword or resolve, about a microsecond.
    fn bucket_cipher(&self, keyword: &[u8]) -> Result<AesGcm, SseError> {
        let mut label = b"bucket/".to_vec();
        label.extend_from_slice(keyword);
        Ok(AesGcm::new(&self.master.derive(&label, 32))?)
    }

    /// Builds the encrypted structures from a plaintext inverted index and
    /// installs them into the server. Static: one-shot at setup.
    ///
    /// # Errors
    ///
    /// Propagates crypto and storage failures.
    pub fn setup<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        index: &InvertedIndex,
        server: &TwoLevServer,
    ) -> Result<(), SseError> {
        // Pass 1: produce all buckets so they can be globally shuffled.
        struct Pending {
            label: [u8; 32],
            unlock: [u8; 32],
            inline: Option<Vec<u8>>,
            buckets: Vec<Vec<u8>>, // encrypted buckets awaiting positions
        }
        let mut pending = Vec::new();
        for (keyword, postings) in index.iter() {
            let ids: Vec<DocId> = postings.iter().copied().collect();
            let cipher = self.bucket_cipher(keyword)?;
            if ids.len() <= INLINE_THRESHOLD {
                let blob = seal_bucket(&cipher, keyword, 0, &ids);
                pending.push(Pending {
                    label: self.label(keyword),
                    unlock: self.unlock_key(keyword),
                    inline: Some(blob),
                    buckets: Vec::new(),
                });
            } else {
                let buckets = seal_buckets(&cipher, keyword, &ids);
                pending.push(Pending {
                    label: self.label(keyword),
                    unlock: self.unlock_key(keyword),
                    inline: None,
                    buckets,
                });
            }
        }

        // Global shuffle: assign array positions randomly across keywords.
        let total: usize = pending.iter().map(|p| p.buckets.len()).sum();
        let mut positions: Vec<u64> = (0..total as u64).collect();
        positions.shuffle(rng);
        let mut next = 0usize;

        for p in pending {
            let entry_plain = match &p.inline {
                Some(blob) => {
                    let mut w = Writer::new();
                    w.u8(0).bytes(blob);
                    w.finish()
                }
                None => {
                    let mut w = Writer::new();
                    w.u8(1).u32(p.buckets.len() as u32);
                    for b in &p.buckets {
                        let pos = positions[next];
                        next += 1;
                        w.u64(pos);
                        server.put_bucket(pos, b);
                    }
                    w.finish()
                }
            };
            // Seal the dictionary entry under the unlock key with a
            // deterministic nonce (one-time static setup).
            let entry_cipher = AesGcm::new(&SymmetricKey::from_bytes(&p.unlock))?;
            let sealed = entry_cipher.seal(&[0u8; 12], b"2lev-dict", &entry_plain);
            server.put_dict(&p.label, &sealed);
        }
        Ok(())
    }

    /// The search token for a keyword.
    pub fn search_token(&self, keyword: &[u8]) -> TwoLevToken {
        TwoLevToken { label: self.label(keyword), unlock: self.unlock_key(keyword) }
    }

    /// Decrypts the buckets the server returned into document ids.
    ///
    /// # Errors
    ///
    /// Crypto failures on tampered buckets.
    pub fn resolve(&self, keyword: &[u8], buckets: &[Vec<u8>]) -> Result<Vec<DocId>, SseError> {
        let cipher = self.bucket_cipher(keyword)?;
        let aad = bucket_aad(keyword);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for (bucket, index) in buckets.iter().zip(0u64..) {
            scratch.clone_from(bucket);
            out.extend(decode_bucket(cipher.open_in_place(&bucket_nonce(index), &aad, &mut scratch)?)?);
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

fn bucket_aad(keyword: &[u8]) -> Vec<u8> {
    let mut aad = b"2lev-bucket/".to_vec();
    aad.extend_from_slice(keyword);
    aad
}

fn bucket_nonce(index: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&index.to_be_bytes());
    nonce
}

fn bucket_plain(ids: &[DocId]) -> Vec<u8> {
    let mut plain = Vec::with_capacity(BUCKET_CAPACITY * 16);
    for id in ids {
        plain.extend_from_slice(&id.0);
    }
    for _ in ids.len()..BUCKET_CAPACITY {
        plain.extend_from_slice(&PAD_ID);
    }
    plain
}

fn seal_bucket(cipher: &AesGcm, keyword: &[u8], index: u64, ids: &[DocId]) -> Vec<u8> {
    cipher.seal(&bucket_nonce(index), &bucket_aad(keyword), &bucket_plain(ids))
}

/// Seals every [`BUCKET_CAPACITY`]-sized chunk of `ids` through one cipher
/// context, with the AAD built once.
fn seal_buckets(cipher: &AesGcm, keyword: &[u8], ids: &[DocId]) -> Vec<Vec<u8>> {
    let aad = bucket_aad(keyword);
    ids.chunks(BUCKET_CAPACITY)
        .zip(0u64..)
        .map(|(chunk, index)| cipher.seal(&bucket_nonce(index), &aad, &bucket_plain(chunk)))
        .collect()
}

fn decode_bucket(plain: &[u8]) -> Result<Vec<DocId>, SseError> {
    if !plain.len().is_multiple_of(16) {
        return Err(SseError::Malformed("2lev bucket size"));
    }
    Ok(plain
        .chunks(16)
        .filter(|c| *c != PAD_ID)
        .map(|c| {
            let mut id = [0u8; 16];
            id.copy_from_slice(c);
            DocId(id)
        })
        .collect())
}

/// The cloud-side half: dictionary + array over the KV store.
pub struct TwoLevServer {
    kv: KvStore,
    prefix: Vec<u8>,
}

impl TwoLevServer {
    /// Creates a server storing under `prefix`.
    pub fn new(kv: KvStore, prefix: &[u8]) -> Self {
        TwoLevServer { kv, prefix: prefix.to_vec() }
    }

    fn dict_key(&self, label: &[u8; 32]) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"dict:");
        k.extend_from_slice(label);
        k
    }

    fn arr_key(&self, pos: u64) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"arr:");
        k.extend_from_slice(&pos.to_be_bytes());
        k
    }

    fn put_dict(&self, label: &[u8; 32], sealed: &[u8]) {
        self.kv.set(&self.dict_key(label), sealed);
    }

    fn put_bucket(&self, pos: u64, blob: &[u8]) {
        self.kv.set(&self.arr_key(pos), blob);
    }

    /// Executes a search: opens the dictionary entry with the token's
    /// unlock key, follows pointers into the array, and returns the
    /// (still client-encrypted) buckets in chunk order.
    ///
    /// Returns an empty vec for unknown labels.
    ///
    /// # Errors
    ///
    /// [`SseError::Crypto`] if the unlock key does not open the entry,
    /// [`SseError::Malformed`] on corrupt entries.
    pub fn search(&self, token: &TwoLevToken) -> Result<Vec<Vec<u8>>, SseError> {
        let Some(mut sealed) = self.kv.get(&self.dict_key(&token.label)) else {
            return Ok(Vec::new());
        };
        let entry_cipher = AesGcm::new(&SymmetricKey::from_bytes(&token.unlock))?;
        let plain = entry_cipher.open_in_place(&[0u8; 12], b"2lev-dict", &mut sealed)?;
        let mut r = Reader::new(plain);
        match r.u8()? {
            0 => {
                let blob = r.bytes()?;
                r.finish()?;
                Ok(vec![blob.to_vec()])
            }
            1 => {
                let count = r.u32()? as usize;
                let mut out = Vec::with_capacity(count);
                for _ in 0..count {
                    let pos = r.u64()?;
                    let blob = self.kv.get(&self.arr_key(pos)).ok_or(SseError::Malformed("2lev dangling pointer"))?;
                    out.push(blob);
                }
                r.finish()?;
                Ok(out)
            }
            _ => Err(SseError::Malformed("2lev entry kind")),
        }
    }

    /// Dictionary entry count.
    pub fn dict_size(&self) -> usize {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"dict:");
        self.kv.keys_with_prefix(&k).len()
    }

    /// Array bucket count.
    pub fn array_size(&self) -> usize {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"arr:");
        self.kv.keys_with_prefix(&k).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn id(n: u16) -> DocId {
        let mut b = [0u8; 16];
        b[..2].copy_from_slice(&n.to_be_bytes());
        DocId(b)
    }

    fn setup(index: &InvertedIndex) -> (TwoLevClient, TwoLevServer) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let client = TwoLevClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let server = TwoLevServer::new(KvStore::new(), b"2lev:");
        client.setup(&mut rng, index, &server).unwrap();
        (client, server)
    }

    #[test]
    fn small_lists_inline() {
        let mut idx = InvertedIndex::new();
        idx.add(b"rare", id(1));
        idx.add(b"rare", id(2));
        let (client, server) = setup(&idx);
        assert_eq!(server.dict_size(), 1);
        assert_eq!(server.array_size(), 0, "small lists never hit the array");
        let buckets = server.search(&client.search_token(b"rare")).unwrap();
        let ids = client.resolve(b"rare", &buckets).unwrap();
        assert_eq!(ids, vec![id(1), id(2)]);
    }

    #[test]
    fn large_lists_use_array() {
        let mut idx = InvertedIndex::new();
        for n in 0..50 {
            idx.add(b"common", id(n));
        }
        idx.add(b"rare", id(500));
        let (client, server) = setup(&idx);
        assert_eq!(server.array_size(), 50usize.div_ceil(BUCKET_CAPACITY));
        let buckets = server.search(&client.search_token(b"common")).unwrap();
        let ids = client.resolve(b"common", &buckets).unwrap();
        assert_eq!(ids, (0..50).map(id).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_keyword_empty() {
        let mut idx = InvertedIndex::new();
        idx.add(b"w", id(1));
        let (client, server) = setup(&idx);
        let buckets = server.search(&client.search_token(b"other")).unwrap();
        assert!(buckets.is_empty());
        assert_eq!(client.resolve(b"other", &buckets).unwrap(), vec![]);
    }

    #[test]
    fn wrong_unlock_key_fails_closed() {
        let mut idx = InvertedIndex::new();
        idx.add(b"w", id(1));
        let (client, server) = setup(&idx);
        let mut token = client.search_token(b"w");
        token.unlock[0] ^= 1;
        assert!(matches!(server.search(&token), Err(SseError::Crypto(_))));
    }

    #[test]
    fn padding_hides_exact_sizes() {
        // 1-posting and 8-posting keywords produce identical inline blob sizes.
        let mut idx = InvertedIndex::new();
        idx.add(b"one", id(1));
        for n in 0..BUCKET_CAPACITY as u16 {
            idx.add(b"eight", id(n));
        }
        let (client, server) = setup(&idx);
        let b1 = server.search(&client.search_token(b"one")).unwrap();
        let b8 = server.search(&client.search_token(b"eight")).unwrap();
        assert_eq!(b1[0].len(), b8[0].len());
    }

    #[test]
    fn token_encode_roundtrip() {
        let client = TwoLevClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let t = client.search_token(b"w");
        assert_eq!(TwoLevToken::decode(&t.encode()).unwrap(), t);
        assert!(TwoLevToken::decode(b"short").is_err());
    }

    #[test]
    fn cross_keyword_bucket_isolation() {
        // Buckets are bound to their keyword via AAD: resolving keyword A's
        // buckets as keyword B must fail, not silently return wrong ids.
        let mut idx = InvertedIndex::new();
        for n in 0..20 {
            idx.add(b"a", id(n));
            idx.add(b"b", id(n + 100));
        }
        let (client, server) = setup(&idx);
        let buckets_a = server.search(&client.search_token(b"a")).unwrap();
        assert!(client.resolve(b"b", &buckets_a).is_err());
    }
}

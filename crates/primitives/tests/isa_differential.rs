//! The two tiers of the symmetric kernels, by name, against each other and
//! against the published vectors.
//!
//! The portable tier is reached through `datablinder_primitives::portable`
//! (the crate's own constructors pinned to the implementation every
//! architecture compiles); the hardware tier is what the public
//! constructors pick on a CPU that has the instructions, which
//! `backend()` reports. On a CPU without them the hardware half of each
//! test says on stderr that it was skipped, and the portable half still
//! runs the vectors. `bitwise/` is the third, independent opinion.

mod bitwise;

use std::io::Write;
use std::sync::Mutex;

use datablinder_primitives::aes::Aes;
use datablinder_primitives::ctr::{counter_block, ctr_xor};
use datablinder_primitives::gcm::{AesGcm, TAG_LEN};
use datablinder_primitives::hmac::{hkdf, hmac_sha256, HmacCtx};
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::sha256::{self, Sha256};
use datablinder_primitives::{backend, portable, CryptoError};

/// Whether the hardware kernel called `name` in [`backend`] is running; if
/// not, says so (once) past the test harness's output capture.
fn hardware(name: &'static str) -> bool {
    static REPORTED: Mutex<Vec<&str>> = Mutex::new(Vec::new());
    let present = backend().split('+').any(|kernel| kernel == name);
    let mut reported = REPORTED.lock().unwrap();
    if !present && !reported.contains(&name) {
        reported.push(name);
        writeln!(std::io::stderr(), "isa_differential: no {name} on this CPU ({}), hardware half skipped", backend())
            .expect("stderr");
    }
    present
}

/// A tier's name and the context it builds, for each tier that can run here.
fn tiers<C>(kernels: &[&'static str], portable: C, hardware_tier: impl FnOnce() -> C) -> Vec<(&'static str, C)> {
    let mut tiers = vec![("portable", portable)];
    // A context is on the hardware tier if any of its kernels is (GCM has
    // two); every missing one is reported.
    if kernels.iter().filter(|kernel| hardware(kernel)).count() > 0 {
        tiers.push(("hardware", hardware_tier()));
    }
    tiers
}

fn aes_tiers(key: &[u8]) -> Vec<(&'static str, Aes)> {
    tiers(&["aes-ni"], portable::aes(key).unwrap(), || Aes::new(key).unwrap())
}

fn gcm_tiers(key: &[u8]) -> Vec<(&'static str, AesGcm)> {
    let key = SymmetricKey::from_bytes(key);
    tiers(&["aes-ni", "pclmulqdq"], portable::gcm(&key).unwrap(), || AesGcm::new(&key).unwrap())
}

fn sha_tiers() -> Vec<(&'static str, Sha256)> {
    tiers(&["sha-ni"], portable::sha256(), Sha256::new)
}

fn hmac_tiers(key: &[u8]) -> Vec<(&'static str, HmacCtx)> {
    tiers(&["sha-ni"], portable::hmac(key), || HmacCtx::new(key))
}

fn digest_on(hasher: &Sha256, data: &[u8]) -> [u8; 32] {
    let mut h = hasher.clone();
    h.update(data);
    h.finalize()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// xorshift64*: a fixed stream, so a failure names a reproducible input.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 32) as u8).collect()
    }
}

/// A buffer whose first byte sits on a 64-byte boundary, so `[k..]` is a
/// slice exactly `k` bytes off alignment.
#[repr(align(64))]
struct Aligned([u8; 512]);

const KEY_LENS: [usize; 3] = [16, 24, 32];

#[test]
fn fips197_appendix_c_on_each_tier() {
    let plain = unhex("00112233445566778899aabbccddeeff");
    for (key, cipher) in [
        ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"),
    ] {
        for (tier, aes) in aes_tiers(&unhex(key)) {
            let mut block: [u8; 16] = plain.clone().try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(hex(&block), cipher, "{tier}, {}-byte key", key.len() / 2);
        }
    }
}

#[test]
fn nist_gcm_cases_on_each_tier() {
    // SP 800-38D validation set, cases 1, 2, 7, 8, 13, 14: zero key, zero
    // nonce, empty or one zero block of plaintext, for each key size.
    for (key_len, plain_len, sealed) in [
        (16, 0, "58e2fccefa7e3061367f1d57a4e7455a"),
        (16, 16, "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"),
        (24, 0, "cd33b28ac773f74ba00ed1f312572435"),
        (24, 16, "98e7247c07f0fe411c267e4384b0f6002ff58d80033927ab8ef4d4587514f0fb"),
        (32, 0, "530f8afbc74536b9a963b4f1c4cb738b"),
        (32, 16, "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"),
    ] {
        for (tier, gcm) in gcm_tiers(&vec![0u8; key_len]) {
            let out = gcm.seal(&[0u8; 12], b"", &vec![0u8; plain_len]);
            assert_eq!(hex(&out), sealed, "{tier}, key {key_len}, plaintext {plain_len}");
            assert_eq!(gcm.open(&[0u8; 12], b"", &out).unwrap(), vec![0u8; plain_len], "{tier}");
        }
    }
    // Cases 4 (AES-128) and 16 (AES-256): 20 bytes of AAD and a 60-byte
    // plaintext, so both end in a partial block.
    let plain = unhex(concat!(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72",
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    ));
    let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
    for (key, sealed) in [
        (
            "feffe9928665731c6d6a8f9467308308",
            concat!(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e",
                "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
                "5bc94fbc3221a5db94fae95ae7121a47"
            ),
        ),
        (
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            concat!(
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa",
                "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
                "76fc6ece0f4e1768cddf8853bb2d551b"
            ),
        ),
    ] {
        for (tier, gcm) in gcm_tiers(&unhex(key)) {
            assert_eq!(hex(&gcm.seal(&nonce, &aad, &plain)), sealed, "{tier}, key {}", key.len() / 2);
            let mut buf = unhex(sealed);
            assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf).unwrap(), &plain[..], "{tier}");
        }
    }
}

#[test]
fn fips180_vectors_on_each_tier() {
    for (tier, hasher) in sha_tiers() {
        for (message, digest) in [
            (&b""[..], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex(&digest_on(&hasher, message)), digest, "{tier}");
        }
        let mut h = hasher.clone();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            "{tier}, one million 'a'"
        );
    }
}

#[test]
fn rfc4231_and_rfc5869_vectors_on_each_tier() {
    for (key, message, tag) in [
        (vec![0x0b; 20], &b"Hi There"[..], "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (vec![0xaa; 20], &[0xdd; 50], "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ] {
        for (tier, ctx) in hmac_tiers(&key) {
            assert_eq!(hex(&ctx.mac(message)), tag, "{tier}");
            let mut incremental = ctx.begin();
            incremental.update(message);
            assert_eq!(hex(&incremental.finalize()), tag, "{tier}, incremental");
        }
    }
    // RFC 5869 test case 1.
    let (ikm, salt, info) = ([0x0b; 22], unhex("000102030405060708090a0b0c"), unhex("f0f1f2f3f4f5f6f7f8f9"));
    let okm = "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865";
    assert_eq!(hex(&portable::hkdf(&salt, &ikm, &info, 42)), okm, "portable");
    if hardware("sha-ni") {
        assert_eq!(hex(&hkdf(&salt, &ikm, &info, 42)), okm, "hardware");
    }
}

#[test]
fn aes_block_tiers_agree_with_the_bytewise_definition() {
    let mut stream = Stream(11);
    for key_len in KEY_LENS {
        let key = stream.bytes(key_len);
        let definition = bitwise::Aes::new(&key);
        for _ in 0..64 {
            let block: [u8; 16] = stream.bytes(16).try_into().unwrap();
            let mut expect = block;
            definition.encrypt_block(&mut expect);
            for (tier, aes) in aes_tiers(&key) {
                let mut got = block;
                aes.encrypt_block(&mut got);
                assert_eq!(got, expect, "{tier}, key {key_len}");
            }
        }
    }
}

#[test]
fn ctr_tiers_agree_at_every_length_and_offset() {
    let mut stream = Stream(12);
    for key_len in KEY_LENS {
        let key = stream.bytes(key_len);
        let definition = bitwise::Aes::new(&key);
        let tiers = aes_tiers(&key);
        for len in 0..=257usize {
            let offset = len % 16;
            let iv = counter_block(&stream.bytes(12).try_into().unwrap(), stream.next() as u32);
            let data = stream.bytes(len);
            let mut expect = data.clone();
            bitwise::ctr_xor(&definition, &iv, &mut expect);
            for (tier, aes) in &tiers {
                let mut buf = Aligned([0; 512]);
                let window = &mut buf.0[offset..offset + len];
                window.copy_from_slice(&data);
                ctr_xor(aes, &iv, window);
                assert_eq!(window, &expect[..], "{tier}, key {key_len}, len {len}, offset {offset}");
                assert!(buf.0[..offset].iter().chain(&buf.0[offset + len..]).all(|&b| b == 0), "{tier}: wrote outside");
            }
        }
    }
}

#[test]
fn ctr_counter_wraps_inside_a_pipelined_batch() {
    // Eight blocks are in flight at once on the hardware tier; start close
    // enough to u32::MAX that the wrap lands at each position of a batch.
    let key = [0x2a; 16];
    let definition = bitwise::Aes::new(&key);
    for before_wrap in 0..10u32 {
        let iv = counter_block(&[8u8; 12], u32::MAX - before_wrap);
        let mut expect = vec![0xEE; 2 * 128 + 40];
        bitwise::ctr_xor(&definition, &iv, &mut expect);
        for (tier, aes) in aes_tiers(&key) {
            let mut got = vec![0xEE; 2 * 128 + 40];
            ctr_xor(&aes, &iv, &mut got);
            assert_eq!(got, expect, "{tier}, {before_wrap} blocks before the wrap");
        }
    }
}

#[test]
fn gcm_tiers_agree_at_every_length_aad_length_and_offset() {
    let mut stream = Stream(13);
    for key_len in KEY_LENS {
        let key = stream.bytes(key_len);
        let tiers = gcm_tiers(&key);
        for len in 0..=257usize {
            let nonce: [u8; 12] = stream.bytes(12).try_into().unwrap();
            let plain = stream.bytes(len);
            for aad_len in 0..=33usize {
                // Every offset 0..16 meets every length as aad_len runs.
                let offset = (len + aad_len) % 16;
                let aad = stream.bytes(aad_len);
                let mut sealed: Option<Vec<u8>> = None;
                for (tier, gcm) in &tiers {
                    let at = || format!("{tier}, key {key_len}, len {len}, aad {aad_len}, offset {offset}");
                    // Input read from, and output appended at, `offset`
                    // bytes past an aligned address.
                    let mut input = Aligned([0; 512]);
                    input.0[offset..offset + len].copy_from_slice(&plain);
                    let mut out = Vec::with_capacity(64 + len + TAG_LEN);
                    let pad = (offset + 64 - out.as_ptr() as usize % 64) % 64;
                    out.resize(pad, 0xA5);
                    gcm.seal_into(&nonce, &aad, &input.0[offset..offset + len], &mut out);
                    assert!(out[..pad].iter().all(|&b| b == 0xA5), "{}: prefix disturbed", at());
                    let this = out.split_off(pad);
                    assert_eq!(this.len(), len + TAG_LEN, "{}", at());
                    match &sealed {
                        None => sealed = Some(this),
                        Some(first) => assert_eq!(&this, first, "{}", at()),
                    }
                    input.0[offset..offset + len + TAG_LEN].copy_from_slice(sealed.as_ref().unwrap());
                    let sealed_in = &input.0[offset..offset + len + TAG_LEN];
                    assert_eq!(gcm.open(&nonce, &aad, sealed_in).unwrap(), plain, "{}", at());
                }
            }
            // One AAD length per message length against the definition;
            // the tiers were just shown equal on all of them.
            let aad = stream.bytes(len % 34);
            let expect = bitwise::seal(&key, &nonce, &aad, &plain);
            for (tier, gcm) in &tiers {
                assert_eq!(gcm.seal(&nonce, &aad, &plain), expect, "{tier} against the definition, len {len}");
            }
        }
    }
}

#[test]
fn ghash_tiers_agree_with_the_bit_loop_on_long_inputs() {
    let mut stream = Stream(14);
    let key = stream.bytes(16);
    let h = bitwise::hash_subkey(&bitwise::Aes::new(&key));
    for len in [0usize, 1, 16, 17, 33, 100, 4096] {
        let (aad, ct) = (stream.bytes(len / 3), stream.bytes(len));
        let expect = bitwise::ghash(h, &aad, &ct);
        for (tier, gcm) in gcm_tiers(&key) {
            assert_eq!(gcm.ghash(&aad, &ct), expect, "{tier}, len {len}");
        }
    }
}

#[test]
fn one_pass_tags_and_in_place_opens_agree_with_the_definition() {
    // Ciphertext lengths 0..=300 against AAD lengths on and off block
    // boundaries: the hardware GHASH folds four blocks per reduction, so
    // every count of blocks modulo four, split every way between the AAD
    // and the ciphertext, meets the single-block tail.
    let mut stream = Stream(17);
    let key = stream.bytes(16);
    let h = bitwise::hash_subkey(&bitwise::Aes::new(&key));
    let tiers = gcm_tiers(&key);
    for len in 0..=300usize {
        for aad_len in [0usize, 3, 16, 17, 40, 64] {
            let (nonce, aad, plain) = (stream.bytes(12).try_into().unwrap(), stream.bytes(aad_len), stream.bytes(len));
            let expect = bitwise::seal(&key, &nonce, &aad, &plain);
            let (ct, _) = expect.split_at(len);
            for (tier, gcm) in &tiers {
                let at = || format!("{tier}, len {len}, aad {aad_len}");
                assert_eq!(gcm.ghash(&aad, ct), bitwise::ghash(h, &aad, ct), "{}", at());
                assert_eq!(gcm.seal(&nonce, &aad, &plain), expect, "{}", at());
                let mut buf = expect.clone();
                assert_eq!(gcm.open_in_place(&nonce, &aad, &mut buf).unwrap(), &plain[..], "{}", at());
            }
        }
    }
}

#[test]
fn a_failed_open_in_place_returns_no_plaintext_on_each_tier() {
    let plain = b"payload spanning more than one block";
    let nonce = [5u8; 12];
    for (tier, gcm) in gcm_tiers(&[3u8; 32]) {
        let sealed = gcm.seal(&nonce, b"aad", plain);
        let refused = |what: &str, aad: &[u8], nonce: &[u8; 12], mut buf: Vec<u8>| {
            let result = gcm.open_in_place(nonce, aad, &mut buf).map(|_| ());
            assert_eq!(result, Err(CryptoError::AuthenticationFailed), "{tier}, {what}");
            // The decrypted bytes are zeroed: no plaintext byte survives in
            // the caller's buffer.
            assert!(buf[..plain.len()].iter().all(|&b| b == 0), "{tier}, {what}: plaintext left in the buffer");
        };
        for bit in 0..sealed.len() * 8 {
            let mut forged = sealed.clone();
            forged[bit / 8] ^= 1 << (bit % 8);
            let part = if bit / 8 < plain.len() { "ciphertext" } else { "tag" };
            refused(&format!("{part} bit {bit}"), b"aad", &nonce, forged);
        }
        refused("aad", b"other", &nonce, sealed.clone());
        refused("nonce", b"aad", &[6u8; 12], sealed.clone());
        let mut short = sealed[..TAG_LEN - 1].to_vec();
        assert_eq!(gcm.open_in_place(&nonce, b"aad", &mut short), Err(CryptoError::MalformedCiphertext), "{tier}");
        assert_eq!(short, sealed[..TAG_LEN - 1], "{tier}: a buffer too short for a tag is left alone");
        let mut buf = sealed.clone();
        assert_eq!(gcm.open_in_place(&nonce, b"aad", &mut buf).unwrap(), plain, "{tier}");
        assert_eq!(gcm.open(&nonce, b"aad", &sealed).unwrap(), plain, "{tier}, allocating");
    }
}

#[test]
fn sha256_tiers_agree_at_every_length_split_and_offset() {
    let data = Stream(15).bytes(3 * 64 + 16);
    let tiers = sha_tiers();
    // Every length across two block boundaries, read from every offset
    // 0..16 off alignment, absorbed whole and in two parts.
    for len in 0..=2 * 64 + 2 {
        let offset = len % 16;
        let mut buf = Aligned([0; 512]);
        buf.0[offset..offset + len].copy_from_slice(&data[..len]);
        let message = &buf.0[offset..offset + len];
        let expect = digest_on(&tiers[0].1, message);
        for (tier, hasher) in &tiers {
            assert_eq!(digest_on(hasher, message), expect, "{tier}, len {len}");
            for split in [1, 55, 56, 63, 64, 65, 127].into_iter().filter(|&s| s < len) {
                let mut h = hasher.clone();
                h.update(&message[..split]);
                h.update(&message[split..]);
                assert_eq!(h.finalize(), expect, "{tier}, len {len}, split {split}");
            }
        }
    }
    assert_eq!(sha256::digest(b"abc"), digest_on(&tiers[0].1, b"abc"), "one-shot digest");
}

#[test]
fn sha256_and_hmac_tiers_agree_on_a_mebibyte() {
    let data = Stream(16).bytes(1 << 20);
    let digests: Vec<_> = sha_tiers().into_iter().map(|(_, hasher)| digest_on(&hasher, &data)).collect();
    assert!(digests.windows(2).all(|pair| pair[0] == pair[1]), "SHA-256 over 1 MiB differs between tiers");
    assert_eq!(digests[0], sha256::digest(&data));
    let macs: Vec<_> = hmac_tiers(b"key").into_iter().map(|(_, ctx)| ctx.mac(&data)).collect();
    assert!(macs.windows(2).all(|pair| pair[0] == pair[1]), "HMAC over 1 MiB differs between tiers");
    assert_eq!(macs[0], hmac_sha256(b"key", &data));
}

//! Differential property tests for the symmetric kernels against the
//! bitwise definitions in `bitwise/`: the AES rounds, the CTR keystream,
//! GHASH and the whole seal pipeline must equal them byte for byte on
//! whichever tier this CPU selects (`isa_differential` pins the two tiers
//! to each other).

mod bitwise;

use datablinder_primitives::aes::Aes;
use datablinder_primitives::ctr::{counter_block, ctr_xor};
use datablinder_primitives::gcm::AesGcm;
use datablinder_primitives::hmac::{hmac_sha256, HmacCtx};
use datablinder_primitives::keys::SymmetricKey;
use proptest::prelude::*;

fn any_key() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 16..=16),
        prop::collection::vec(any::<u8>(), 24..=24),
        prop::collection::vec(any::<u8>(), 32..=32),
    ]
}

proptest! {
    #[test]
    fn aes_matches_bytewise_definition(key in any_key(),
                                       block in prop::collection::vec(any::<u8>(), 16..=16)) {
        let aes = Aes::new(&key).unwrap();
        let mut fast: [u8; 16] = block.clone().try_into().unwrap();
        let mut slow = fast;
        aes.encrypt_block(&mut fast);
        bitwise::Aes::new(&key).encrypt_block(&mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn ctr_matches_block_at_a_time_definition(key in any_key(),
                                              nonce in prop::collection::vec(any::<u8>(), 12..=12),
                                              count in any::<u32>(),
                                              data in prop::collection::vec(any::<u8>(), 0..600)) {
        let aes = Aes::new(&key).unwrap();
        let iv = counter_block(&nonce.try_into().unwrap(), count);
        let mut fast = data.clone();
        let mut slow = data;
        ctr_xor(&aes, &iv, &mut fast);
        bitwise::ctr_xor(&bitwise::Aes::new(&key), &iv, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn ghash_matches_bit_loop_definition(key in any_key(),
                                         aad in prop::collection::vec(any::<u8>(), 0..64),
                                         ct in prop::collection::vec(any::<u8>(), 0..300)) {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&key)).unwrap();
        let h = bitwise::hash_subkey(&bitwise::Aes::new(&key));
        prop_assert_eq!(cipher.ghash(&aad, &ct), bitwise::ghash(h, &aad, &ct));
    }

    #[test]
    fn seal_matches_definition(key in any_key(),
                               nonce in prop::collection::vec(any::<u8>(), 12..=12),
                               aad in prop::collection::vec(any::<u8>(), 0..32),
                               pt in prop::collection::vec(any::<u8>(), 0..300)) {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&key)).unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let fast = cipher.seal(&nonce, &aad, &pt);
        let slow = bitwise::seal(&key, &nonce, &aad, &pt);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(cipher.open(&nonce, &aad, &fast).unwrap(), pt);
    }

    #[test]
    fn seal_many_matches_per_field_seal(key in any_key(),
                                        items in prop::collection::vec(
                                            (prop::collection::vec(any::<u8>(), 12..=12),
                                             prop::collection::vec(any::<u8>(), 0..120)),
                                            0..8)) {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&key)).unwrap();
        let nonces: Vec<[u8; 12]> = items.iter().map(|(n, _)| n.clone().try_into().unwrap()).collect();
        let refs: Vec<(&[u8; 12], &[u8])> =
            nonces.iter().zip(&items).map(|(n, (_, p))| (n, p.as_slice())).collect();
        let batch = cipher.seal_many(b"aad", &refs);
        prop_assert_eq!(batch.len(), items.len());
        for ((nonce, (_, pt)), sealed) in nonces.iter().zip(&items).zip(&batch) {
            prop_assert_eq!(sealed, &cipher.seal(nonce, b"aad", pt));
        }
        let sealed_refs: Vec<(&[u8; 12], &[u8])> =
            nonces.iter().zip(&batch).map(|(n, s)| (n, s.as_slice())).collect();
        let opened = cipher.open_many(b"aad", &sealed_refs).unwrap();
        prop_assert_eq!(opened, items.into_iter().map(|(_, p)| p).collect::<Vec<_>>());
    }

    #[test]
    fn seal_into_appends_without_disturbing_prefix(prefix in prop::collection::vec(any::<u8>(), 0..32),
                                                   pt in prop::collection::vec(any::<u8>(), 0..120)) {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[9u8; 16])).unwrap();
        let nonce = [4u8; 12];
        let mut out = prefix.clone();
        cipher.seal_into(&nonce, b"a", &pt, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &cipher.seal(&nonce, b"a", &pt)[..]);
    }

    #[test]
    fn hmac_ctx_matches_oneshot(key in prop::collection::vec(any::<u8>(), 0..100),
                                msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..6)) {
        let ctx = HmacCtx::new(&key);
        for msg in &msgs {
            prop_assert_eq!(ctx.mac(msg), hmac_sha256(&key, msg));
        }
    }
}

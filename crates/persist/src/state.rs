//! The [`MetadataState`] snapshot trait and checksummed snapshot framing.
//!
//! Every wear-leveling scheme in the workspace implements [`MetadataState`]
//! for its full mapping metadata — gap pointers, round counters, key
//! schedules, detector epochs, RNG streams. A snapshot is a self-validating
//! byte string: recovery either reconstructs *exactly* the state that was
//! saved or refuses with a [`PersistError`]; it never yields a plausible but
//! wrong mapping.
//!
//! Implementations for the workspace's foreign building blocks (Feistel
//! networks, the vendored xoshiro RNGs, [`LineData`]) live here; each scheme
//! implements the trait in its own defining module, next to its private
//! fields.

use crate::codec::{crc64, Dec, Enc, PersistError};
use rand::rngs::{SmallRng, StdRng};
use srbsg_feistel::{AddressPermutation, FeistelNetwork, IdentityPermutation, KeyArray};
use srbsg_pcm::LineData;

/// Serializable wear-leveling metadata.
///
/// `decode_state(encode_state(x)) == x` must hold for every reachable state,
/// where equality means *observable* equality: identical translations and
/// identical behavior on every future write. Implementations prefix their
/// payload with a type tag (see [`tags`]) so a snapshot of one scheme can
/// never be decoded as another.
pub trait MetadataState {
    /// Append this state's full serialized form to `enc`.
    fn encode_state(&self, enc: &mut Enc);

    /// Reconstruct a state previously written by
    /// [`MetadataState::encode_state`].
    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError>
    where
        Self: Sized;
}

/// Type tags prefixed to each implementation's payload.
///
/// Decoding checks the tag before anything else, turning "snapshot of the
/// wrong scheme" into [`PersistError::Corrupt`] instead of garbage state.
pub mod tags {
    /// [`srbsg_feistel::FeistelNetwork`]
    pub const FEISTEL: u8 = 1;
    /// [`srbsg_feistel::IdentityPermutation`]
    pub const IDENTITY: u8 = 2;
    /// xoshiro256** RNG state ([`rand::rngs::StdRng`] / [`rand::rngs::SmallRng`])
    pub const RNG: u8 = 3;
    /// `srbsg_wearlevel::GapMapping`
    pub const GAP_MAPPING: u8 = 4;
    /// `srbsg_wearlevel::SrMapping`
    pub const SR_MAPPING: u8 = 5;
    /// `srbsg_wearlevel::Rbsg` (including Start-Gap)
    pub const RBSG: u8 = 6;
    /// `srbsg_wearlevel::SecurityRefresh`
    pub const SECURITY_REFRESH: u8 = 7;
    /// `srbsg_wearlevel::TwoLevelSr`
    pub const TWO_LEVEL_SR: u8 = 8;
    /// `srbsg_wearlevel::MultiWaySr`
    pub const MULTI_WAY_SR: u8 = 9;
    /// `srbsg_wearlevel::WriteStreamDetector`
    pub const DETECTOR: u8 = 10;
    /// `srbsg_wearlevel::AdaptiveRbsg`
    pub const ADAPTIVE_RBSG: u8 = 11;
    /// `srbsg_core::DfnMapping`
    pub const DFN: u8 = 12;
    /// `srbsg_core::SecurityRbsg`
    pub const SECURITY_RBSG: u8 = 13;
}

/// Check a just-read type tag against the expected one.
pub fn expect_tag(dec: &mut Dec, expected: u8) -> Result<(), PersistError> {
    if dec.u8()? == expected {
        Ok(())
    } else {
        Err(PersistError::Corrupt("state type tag mismatch"))
    }
}

impl MetadataState for FeistelNetwork {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::FEISTEL);
        enc.u32(self.width());
        let keys = self.keys().keys();
        enc.u32(keys.len() as u32);
        for &k in keys {
            enc.u64(k);
        }
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::FEISTEL)?;
        let width = dec.u32()?;
        if !(2..=62).contains(&width) {
            return Err(PersistError::Corrupt("feistel width out of range"));
        }
        let stages = dec.u32()?;
        if !(1..=64).contains(&stages) {
            return Err(PersistError::Corrupt("feistel stage count out of range"));
        }
        let half = width.div_ceil(2);
        let mask = (1u64 << half) - 1;
        let mut keys = Vec::with_capacity(stages as usize);
        for _ in 0..stages {
            let k = dec.u64()?;
            if k & !mask != 0 {
                return Err(PersistError::Corrupt("feistel key exceeds half-width"));
            }
            keys.push(k);
        }
        Ok(FeistelNetwork::new(width, KeyArray::from_keys(keys)))
    }
}

impl MetadataState for IdentityPermutation {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::IDENTITY);
        enc.u32(self.width());
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::IDENTITY)?;
        let width = dec.u32()?;
        if !(1..=63).contains(&width) {
            return Err(PersistError::Corrupt("identity width out of range"));
        }
        Ok(IdentityPermutation::new(width))
    }
}

fn encode_rng_words(enc: &mut Enc, words: [u64; 4]) {
    enc.u8(tags::RNG);
    for w in words {
        enc.u64(w);
    }
}

fn decode_rng_words(dec: &mut Dec) -> Result<[u64; 4], PersistError> {
    expect_tag(dec, tags::RNG)?;
    let words = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
    if words == [0; 4] {
        // The all-zero state is a xoshiro fixed point that can never be
        // produced by seeding; reject it rather than restore a dead RNG.
        return Err(PersistError::Corrupt("all-zero rng state"));
    }
    Ok(words)
}

impl MetadataState for StdRng {
    fn encode_state(&self, enc: &mut Enc) {
        encode_rng_words(enc, self.state());
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        Ok(StdRng::from_state(decode_rng_words(dec)?))
    }
}

impl MetadataState for SmallRng {
    fn encode_state(&self, enc: &mut Enc) {
        encode_rng_words(enc, self.state());
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        Ok(SmallRng::from_state(decode_rng_words(dec)?))
    }
}

/// Compact [`LineData`] codec used by journal before-images.
pub fn encode_line_data(enc: &mut Enc, data: LineData) {
    match data {
        LineData::Zeros => {
            enc.u8(0);
            enc.u32(0);
        }
        LineData::Ones => {
            enc.u8(1);
            enc.u32(0);
        }
        LineData::Mixed(tag) => {
            enc.u8(2);
            enc.u32(tag);
        }
    }
}

/// Inverse of [`encode_line_data`].
pub fn decode_line_data(dec: &mut Dec) -> Result<LineData, PersistError> {
    let kind = dec.u8()?;
    let tag = dec.u32()?;
    match kind {
        0 => Ok(LineData::Zeros),
        1 => Ok(LineData::Ones),
        2 => Ok(LineData::Mixed(tag)),
        _ => Err(PersistError::Corrupt("unknown line-data kind")),
    }
}

/// Magic number opening every snapshot ("SRSN").
pub const SNAPSHOT_MAGIC: u32 = 0x5352_534E;

/// Serialize a full metadata snapshot.
///
/// Layout: `magic u32 | seq u64 | len u32 | payload | crc64` where the CRC
/// covers everything before it and `seq` is the journal sequence number the
/// snapshot corresponds to (replay resumes from `seq`).
pub fn encode_snapshot<S: MetadataState>(state: &S, seq: u64) -> Vec<u8> {
    let mut payload = Enc::new();
    state.encode_state(&mut payload);
    let payload = payload.into_bytes();

    let mut enc = Enc::new();
    enc.u32(SNAPSHOT_MAGIC);
    enc.u64(seq);
    enc.u32(payload.len() as u32);
    enc.bytes(&payload);
    let crc = crc64(enc.as_bytes());
    enc.u64(crc);
    enc.into_bytes()
}

/// Validate and decode a snapshot, returning the state and its sequence
/// number. Any bit flip anywhere in `bytes` yields an error, never a wrong
/// mapping.
pub fn decode_snapshot<S: MetadataState>(bytes: &[u8]) -> Result<(S, u64), PersistError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("bad snapshot magic"));
    }
    let seq = dec.u64()?;
    let len = dec.u32()? as usize;
    if dec.remaining() < len + 8 {
        return Err(PersistError::Truncated);
    }
    let covered = bytes.len() - dec.remaining() + len;
    let stored_crc = u64::from_le_bytes(bytes[covered..covered + 8].try_into().unwrap());
    if crc64(&bytes[..covered]) != stored_crc {
        return Err(PersistError::Corrupt("snapshot checksum mismatch"));
    }
    let payload = dec.take(len)?;
    let mut pdec = Dec::new(payload);
    let state = S::decode_state(&mut pdec)?;
    pdec.finish()?;
    dec.u64()?; // the CRC we already verified
    dec.finish()?;
    Ok((state, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn feistel_roundtrip_preserves_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = FeistelNetwork::random(&mut rng, 10, 5);
        let bytes = encode_snapshot(&net, 42);
        let (back, seq): (FeistelNetwork, u64) = decode_snapshot(&bytes).unwrap();
        assert_eq!(seq, 42);
        for a in 0..net.domain_size() {
            assert_eq!(net.encrypt(a), back.encrypt(a));
        }
    }

    #[test]
    fn rng_roundtrip_resumes_stream() {
        let mut rng = SmallRng::seed_from_u64(9);
        let _: u64 = rng.random();
        let mut enc = Enc::new();
        rng.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = SmallRng::decode_state(&mut Dec::new(&bytes)).unwrap();
        for _ in 0..20 {
            assert_eq!(rng.random::<u64>(), back.random::<u64>());
        }
    }

    #[test]
    fn every_snapshot_bit_flip_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = FeistelNetwork::random(&mut rng, 6, 3);
        let bytes = encode_snapshot(&net, 7);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot::<FeistelNetwork>(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn line_data_codec_roundtrip() {
        for d in [LineData::Zeros, LineData::Ones, LineData::Mixed(0xABCD)] {
            let mut enc = Enc::new();
            encode_line_data(&mut enc, d);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            assert_eq!(decode_line_data(&mut dec).unwrap(), d);
            dec.finish().unwrap();
        }
    }
}

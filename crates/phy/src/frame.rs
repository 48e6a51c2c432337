//! The logical wire image of a LoRa PHY frame.
//!
//! Real LoRa is chirp-spread on air; what matters to a packet-level
//! simulator and to the application stack is the byte layout the modem
//! exposes: sync word, explicit header (length, coding rate, CRC flag),
//! payload, and the CRC-16 trailer. [`HEADER_BYTES`] and [`CRC_BYTES`]
//! are the framing overhead every DtS message length in `satiot-core`
//! adds to its body. The codec is checkable: corrupting any byte breaks
//! the CRC, exactly like on hardware.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! +--------+--------+---------+------------+----------+---------+
//! | sync   | hdr:len| hdr:cr  | hdr:flags  | payload  | crc16   |
//! | 1 B    | 1 B    | 1 B     | 1 B        | 0–255 B  | 2 B     |
//! +--------+--------+---------+------------+----------+---------+
//! ```

use crate::params::CodingRate;

/// Public LoRa sync word used by the measured DtS constellations (the
/// "public network" value).
pub const PUBLIC_SYNC_WORD: u8 = 0x34;

/// Bytes ahead of the payload: the sync word and the three header bytes.
pub const HEADER_BYTES: usize = 4;

/// Bytes of the CRC-16 trailer.
pub const CRC_BYTES: usize = 2;

/// Frame flags: CRC present.
const FLAG_CRC: u8 = 0b0000_0001;

/// Errors decoding a frame image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header requires.
    Truncated,
    /// Sync word mismatch (foreign network).
    BadSyncWord {
        /// The sync word found.
        found: u8,
    },
    /// Header length field disagrees with the buffer.
    LengthMismatch,
    /// CRC-16 check failed.
    BadCrc,
    /// Reserved coding-rate encoding.
    BadCodingRate,
    /// Reserved flag bits were set.
    BadFlags,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadSyncWord { found } => write!(f, "bad sync word {found:#04x}"),
            FrameError::LengthMismatch => write!(f, "header length disagrees with buffer"),
            FrameError::BadCrc => write!(f, "payload CRC mismatch"),
            FrameError::BadCodingRate => write!(f, "reserved coding rate"),
            FrameError::BadFlags => write!(f, "reserved flag bits set"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded LoRa frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoRaFrame {
    /// Sync word (network discriminator).
    pub sync_word: u8,
    /// Coding rate from the explicit header.
    pub coding_rate: CodingRate,
    /// Whether the CRC trailer is present (always true for uplink data).
    pub crc_on: bool,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl LoRaFrame {
    /// Build a frame around `payload` with the public sync word and CRC.
    pub fn new(payload: impl Into<Vec<u8>>, coding_rate: CodingRate) -> Self {
        LoRaFrame {
            sync_word: PUBLIC_SYNC_WORD,
            coding_rate,
            crc_on: true,
            payload: payload.into(),
        }
    }

    /// Serialise into the wire image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.extend_from_slice(&[
            self.sync_word,
            self.payload.len() as u8,
            self.coding_rate.cr_value() as u8,
            if self.crc_on { FLAG_CRC } else { 0 },
        ]);
        buf.extend_from_slice(&self.payload);
        if self.crc_on {
            buf.extend_from_slice(&crc16_ccitt(&self.payload).to_be_bytes());
        }
        buf
    }

    /// Parse and validate a wire image.
    pub fn decode(buf: &[u8]) -> Result<LoRaFrame, FrameError> {
        let &[sync_word, len, cr_raw, flags, ref rest @ ..] = buf else {
            return Err(FrameError::Truncated);
        };
        if sync_word != PUBLIC_SYNC_WORD {
            return Err(FrameError::BadSyncWord { found: sync_word });
        }
        let len = len as usize;
        let coding_rate = match cr_raw {
            1 => CodingRate::Cr4_5,
            2 => CodingRate::Cr4_6,
            3 => CodingRate::Cr4_7,
            4 => CodingRate::Cr4_8,
            _ => return Err(FrameError::BadCodingRate),
        };
        if flags & !FLAG_CRC != 0 {
            // Reserved flag bits must be zero: strict parsing makes every
            // single-bit corruption of the header detectable.
            return Err(FrameError::BadFlags);
        }
        let crc_on = flags & FLAG_CRC != 0;
        let expected = len + if crc_on { CRC_BYTES } else { 0 };
        if rest.len() != expected {
            return Err(FrameError::LengthMismatch);
        }
        let (payload, trailer) = rest.split_at(len);
        if crc_on && trailer != crc16_ccitt(payload).to_be_bytes() {
            return Err(FrameError::BadCrc);
        }
        Ok(LoRaFrame {
            sync_word,
            coding_rate,
            crc_on,
            payload: payload.to_vec(),
        })
    }

    /// Total on-air byte count of the image (what airtime should be
    /// computed over at the PHY payload level).
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len() + if self.crc_on { CRC_BYTES } else { 0 }
    }
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) — the CRC LoRa uses for
/// its payload check.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = LoRaFrame::new(&b"hello satellite"[..], CodingRate::Cr4_8);
        let wire = frame.encode();
        assert_eq!(wire.len(), frame.wire_len());
        let back = LoRaFrame::decode(&wire).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = LoRaFrame::new(Vec::new(), CodingRate::Cr4_5);
        let back = LoRaFrame::decode(&frame.encode()).unwrap();
        assert!(back.payload.is_empty());
    }

    #[test]
    fn corrupting_any_byte_is_detected() {
        let frame = LoRaFrame::new(&b"20-byte sensor data."[..], CodingRate::Cr4_5);
        let wire = frame.encode();
        for i in 0..wire.len() {
            let mut corrupted = wire.clone();
            corrupted[i] ^= 0x40;
            let result = LoRaFrame::decode(&corrupted);
            assert!(
                result.is_err() || result.as_ref().unwrap() != &frame,
                "byte {i}: corruption not detected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = LoRaFrame::new(&b"payload"[..], CodingRate::Cr4_5);
        let wire = frame.encode();
        for cut in 0..wire.len() {
            assert!(LoRaFrame::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        assert!(matches!(
            LoRaFrame::decode(&wire[..2]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn foreign_sync_word_is_rejected() {
        let frame = LoRaFrame::new(&b"x"[..], CodingRate::Cr4_5);
        let mut wire = frame.encode();
        wire[0] = 0x12; // Private-network sync word.
        assert_eq!(
            LoRaFrame::decode(&wire),
            Err(FrameError::BadSyncWord { found: 0x12 })
        );
    }

    #[test]
    fn bad_crc_is_rejected_specifically() {
        let frame = LoRaFrame::new(&b"data"[..], CodingRate::Cr4_5);
        let mut wire = frame.encode();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert_eq!(LoRaFrame::decode(&wire), Err(FrameError::BadCrc));
    }

    #[test]
    fn reserved_coding_rate_is_rejected() {
        let frame = LoRaFrame::new(&b"x"[..], CodingRate::Cr4_5);
        let mut wire = frame.encode();
        wire[2] = 7;
        assert_eq!(LoRaFrame::decode(&wire), Err(FrameError::BadCodingRate));
    }

    #[test]
    fn max_payload_round_trips() {
        let payload: Vec<u8> = (0..255).map(|i| i as u8).collect();
        let frame = LoRaFrame::new(payload, CodingRate::Cr4_6);
        let back = LoRaFrame::decode(&frame.encode()).unwrap();
        assert_eq!(back.payload.len(), 255);
        assert_eq!(back.coding_rate, CodingRate::Cr4_6);
    }
}

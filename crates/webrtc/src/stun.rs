//! STUN message codec (RFC 5389 subset).
//!
//! STUN is the linchpin of two findings in the paper: the dynamic PDN
//! detector recognises PDN traffic by spotting *plain-text STUN binding
//! requests* in a capture (§III-C), and the IP-leak harvest extracts peer
//! addresses from STUN exchanges with Wireshark (§IV-D). Both call for a
//! real wire format, implemented here: 20-byte header with magic cookie,
//! TLV attributes, XOR-MAPPED-ADDRESS, FINGERPRINT (CRC-32), and
//! MESSAGE-INTEGRITY.
//!
//! Deviation from RFC 5389: MESSAGE-INTEGRITY uses HMAC-SHA256 (32 bytes)
//! instead of HMAC-SHA1, because the framework implements SHA-256 but not
//! SHA-1. The attribute number is kept, the length differs; both ends of
//! the simulation agree.

use bytes::{BufMut, Bytes, BytesMut};
use pdn_crypto::hmac::{hmac_sha256_keyed, HmacKey};
use pdn_simnet::Addr;
use std::net::Ipv4Addr;

/// The STUN magic cookie (RFC 5389 §6).
pub const MAGIC_COOKIE: u32 = 0x2112_A442;

/// STUN message class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Request (0b00).
    Request,
    /// Indication (0b01).
    Indication,
    /// Success response (0b10).
    Success,
    /// Error response (0b11).
    Error,
}

/// STUN method. Only Binding is used by ICE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Binding (0x001).
    Binding,
    /// TURN Allocate (0x003), used by the relay fallback.
    Allocate,
    /// TURN Send indication (0x006).
    Send,
    /// TURN Data indication (0x007).
    Data,
}

/// A STUN attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Attribute {
    /// MAPPED-ADDRESS (0x0001): plain reflexive address.
    MappedAddress(Addr),
    /// USERNAME (0x0006): `remote_ufrag:local_ufrag` in ICE checks.
    Username(String),
    /// MESSAGE-INTEGRITY (0x0008): HMAC over the preceding message.
    MessageIntegrity([u8; 32]),
    /// ERROR-CODE (0x0009).
    ErrorCode(u16, String),
    /// XOR-MAPPED-ADDRESS (0x0020): address XOR'd with the magic cookie.
    XorMappedAddress(Addr),
    /// SOFTWARE (0x8022): free-text software tag.
    Software(String),
    /// FINGERPRINT (0x8028): CRC-32 of the message XOR 0x5354554e.
    Fingerprint(u32),
    /// XOR-PEER-ADDRESS (0x0012): the peer a TURN message concerns.
    XorPeerAddress(Addr),
    /// DATA (0x0013): payload relayed through TURN.
    Data(Bytes),
    /// XOR-RELAYED-ADDRESS (0x0016): address allocated on the relay.
    XorRelayedAddress(Addr),
    /// PRIORITY (0x0024): ICE candidate-pair priority.
    Priority(u32),
    /// USE-CANDIDATE (0x0025): ICE nomination flag.
    UseCandidate,
}

impl Attribute {
    fn type_code(&self) -> u16 {
        match self {
            Attribute::MappedAddress(_) => 0x0001,
            Attribute::Username(_) => 0x0006,
            Attribute::MessageIntegrity(_) => 0x0008,
            Attribute::ErrorCode(..) => 0x0009,
            Attribute::XorPeerAddress(_) => 0x0012,
            Attribute::Data(_) => 0x0013,
            Attribute::XorRelayedAddress(_) => 0x0016,
            Attribute::XorMappedAddress(_) => 0x0020,
            Attribute::Priority(_) => 0x0024,
            Attribute::UseCandidate => 0x0025,
            Attribute::Software(_) => 0x8022,
            Attribute::Fingerprint(_) => 0x8028,
        }
    }
}

/// A decoded STUN message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Message class.
    pub class: Class,
    /// Method.
    pub method: Method,
    /// 96-bit transaction ID.
    pub transaction_id: [u8; 12],
    /// Attributes in order.
    pub attributes: Vec<Attribute>,
}

/// Error from [`Message::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStunError {
    /// Fewer than 20 bytes, or truncated attributes.
    Truncated,
    /// First two bits were not zero or the cookie mismatched.
    NotStun,
    /// Unknown method or class combination.
    UnknownType(u16),
    /// An attribute payload was malformed.
    BadAttribute(u16),
}

impl std::fmt::Display for DecodeStunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeStunError::Truncated => write!(f, "truncated STUN message"),
            DecodeStunError::NotStun => write!(f, "not a STUN message"),
            DecodeStunError::UnknownType(t) => write!(f, "unknown STUN type 0x{t:04x}"),
            DecodeStunError::BadAttribute(t) => write!(f, "malformed STUN attribute 0x{t:04x}"),
        }
    }
}

impl std::error::Error for DecodeStunError {}

impl Message {
    /// Creates a message with no attributes.
    pub fn new(class: Class, method: Method, transaction_id: [u8; 12]) -> Self {
        Message {
            class,
            method,
            transaction_id,
            attributes: Vec::new(),
        }
    }

    /// Creates a Binding request.
    pub fn binding_request(transaction_id: [u8; 12]) -> Self {
        Message::new(Class::Request, Method::Binding, transaction_id)
    }

    /// Creates a Binding success response reflecting `mapped`.
    pub fn binding_success(transaction_id: [u8; 12], mapped: Addr) -> Self {
        let mut m = Message::new(Class::Success, Method::Binding, transaction_id);
        m.attributes.push(Attribute::XorMappedAddress(mapped));
        m
    }

    /// Adds an attribute, builder style.
    pub fn with(mut self, attr: Attribute) -> Self {
        self.attributes.push(attr);
        self
    }

    /// First XOR-MAPPED-ADDRESS or MAPPED-ADDRESS attribute, if present.
    pub fn mapped_address(&self) -> Option<Addr> {
        self.attributes.iter().find_map(|a| match a {
            Attribute::XorMappedAddress(addr) | Attribute::MappedAddress(addr) => Some(*addr),
            _ => None,
        })
    }

    /// First USERNAME attribute, if present.
    pub fn username(&self) -> Option<&str> {
        self.attributes.iter().find_map(|a| match a {
            Attribute::Username(u) => Some(u.as_str()),
            _ => None,
        })
    }

    /// Appends a MESSAGE-INTEGRITY attribute MAC'd under `key`, builder
    /// style.
    ///
    /// The MAC covers the transaction ID (this simulation's deviation from
    /// RFC 5389, which MACs the whole preceding message). `key` is the
    /// precomputed HMAC key of the receiving side's ICE password — agents
    /// build it once per password and reuse it across the whole
    /// connectivity-check storm.
    pub fn with_integrity(self, key: &HmacKey) -> Self {
        let mac = hmac_sha256_keyed(key, &[&self.transaction_id]);
        self.with(Attribute::MessageIntegrity(mac))
    }

    /// Verifies this message's MESSAGE-INTEGRITY attribute under `key`
    /// (constant-time tag comparison). Returns `false` when the attribute
    /// is absent or the MAC does not match.
    pub fn verify_integrity(&self, key: &HmacKey) -> bool {
        let expect = hmac_sha256_keyed(key, &[&self.transaction_id]);
        self.attributes.iter().any(
            |a| matches!(a, Attribute::MessageIntegrity(mac) if pdn_crypto::ct_eq(mac, &expect)),
        )
    }

    fn type_field(&self) -> u16 {
        let m = match self.method {
            Method::Binding => 0x001u16,
            Method::Allocate => 0x003,
            Method::Send => 0x006,
            Method::Data => 0x007,
        };
        let c = match self.class {
            Class::Request => 0b00u16,
            Class::Indication => 0b01,
            Class::Success => 0b10,
            Class::Error => 0b11,
        };
        // Class bits are interleaved at positions 4 and 8 (RFC 5389 §6).
        ((m & 0xf80) << 2) | ((c & 0x2) << 7) | ((m & 0x070) << 1) | ((c & 0x1) << 4) | (m & 0x00f)
    }

    fn parse_type(t: u16) -> Result<(Class, Method), DecodeStunError> {
        let c = ((t >> 7) & 0x2) | ((t >> 4) & 0x1);
        let m = ((t >> 2) & 0xf80) | ((t >> 1) & 0x070) | (t & 0x00f);
        let class = match c {
            0b00 => Class::Request,
            0b01 => Class::Indication,
            0b10 => Class::Success,
            _ => Class::Error,
        };
        let method = match m {
            0x001 => Method::Binding,
            0x003 => Method::Allocate,
            0x006 => Method::Send,
            0x007 => Method::Data,
            _ => return Err(DecodeStunError::UnknownType(t)),
        };
        Ok((class, method))
    }

    /// Encodes to wire bytes, appending a FINGERPRINT attribute.
    pub fn encode(&self) -> Bytes {
        let mut attrs = BytesMut::new();
        for a in &self.attributes {
            encode_attr(&mut attrs, a, &self.transaction_id);
        }
        // Reserve room for FINGERPRINT (4-byte header + 4-byte value) in the
        // length, as the RFC requires the length to cover it.
        let total_attr_len = attrs.len() + 8;
        let mut out = BytesMut::with_capacity(20 + total_attr_len);
        out.put_u16(self.type_field());
        out.put_u16(total_attr_len as u16);
        out.put_u32(MAGIC_COOKIE);
        out.put_slice(&self.transaction_id);
        out.put_slice(&attrs);
        let crc = pdn_crypto::crc32::stun_fingerprint(&out);
        out.put_u16(0x8028);
        out.put_u16(4);
        out.put_u32(crc);
        out.freeze()
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeStunError`] for non-STUN input, truncation, unknown
    /// types, or malformed attributes. A wrong FINGERPRINT is reported as
    /// [`DecodeStunError::BadAttribute`].
    pub fn decode(data: &[u8]) -> Result<Message, DecodeStunError> {
        if data.len() < 20 {
            return Err(DecodeStunError::Truncated);
        }
        let t = u16::from_be_bytes([data[0], data[1]]);
        if t & 0xc000 != 0 {
            return Err(DecodeStunError::NotStun);
        }
        let cookie = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        if cookie != MAGIC_COOKIE {
            return Err(DecodeStunError::NotStun);
        }
        let len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if data.len() < 20 + len {
            return Err(DecodeStunError::Truncated);
        }
        let (class, method) = Self::parse_type(t)?;
        let mut transaction_id = [0u8; 12];
        transaction_id.copy_from_slice(&data[8..20]);

        let mut attributes = Vec::new();
        let mut off = 20;
        let end = 20 + len;
        while off + 4 <= end {
            let at = u16::from_be_bytes([data[off], data[off + 1]]);
            let alen = u16::from_be_bytes([data[off + 2], data[off + 3]]) as usize;
            let val_start = off + 4;
            let val_end = val_start + alen;
            if val_end > end {
                return Err(DecodeStunError::Truncated);
            }
            let val = &data[val_start..val_end];
            if at == 0x8028 {
                // Verify fingerprint over everything before this attribute.
                if alen != 4 {
                    return Err(DecodeStunError::BadAttribute(at));
                }
                let got = u32::from_be_bytes([val[0], val[1], val[2], val[3]]);
                let want = pdn_crypto::crc32::stun_fingerprint(&data[..off]);
                if got != want {
                    return Err(DecodeStunError::BadAttribute(at));
                }
                attributes.push(Attribute::Fingerprint(got));
            } else if let Some(attr) = decode_attr(at, val, &transaction_id)? {
                attributes.push(attr);
            }
            off = val_end + (4 - alen % 4) % 4; // 32-bit padding
        }
        Ok(Message {
            class,
            method,
            transaction_id,
            attributes,
        })
    }
}

fn xor_addr(addr: Addr, txid: &[u8; 12]) -> (u16, [u8; 4]) {
    let _ = txid; // IPv4 XORs against the cookie only
    let port = addr.port ^ (MAGIC_COOKIE >> 16) as u16;
    let cookie = MAGIC_COOKIE.to_be_bytes();
    let o = addr.ip.octets();
    (
        port,
        [
            o[0] ^ cookie[0],
            o[1] ^ cookie[1],
            o[2] ^ cookie[2],
            o[3] ^ cookie[3],
        ],
    )
}

fn put_addr_value(out: &mut BytesMut, addr: Addr, xored: bool, txid: &[u8; 12]) {
    out.put_u8(0); // reserved
    out.put_u8(0x01); // IPv4 family
    if xored {
        let (port, ip) = xor_addr(addr, txid);
        out.put_u16(port);
        out.put_slice(&ip);
    } else {
        out.put_u16(addr.port);
        out.put_slice(&addr.ip.octets());
    }
}

fn encode_attr(out: &mut BytesMut, attr: &Attribute, txid: &[u8; 12]) {
    let mut val = BytesMut::new();
    match attr {
        Attribute::MappedAddress(a) => put_addr_value(&mut val, *a, false, txid),
        Attribute::XorMappedAddress(a)
        | Attribute::XorPeerAddress(a)
        | Attribute::XorRelayedAddress(a) => put_addr_value(&mut val, *a, true, txid),
        Attribute::Username(u) => val.put_slice(u.as_bytes()),
        Attribute::Software(s) => val.put_slice(s.as_bytes()),
        Attribute::MessageIntegrity(mac) => val.put_slice(mac),
        Attribute::ErrorCode(code, reason) => {
            val.put_u16(0);
            val.put_u8((code / 100) as u8);
            val.put_u8((code % 100) as u8);
            val.put_slice(reason.as_bytes());
        }
        Attribute::Data(d) => val.put_slice(d),
        Attribute::Priority(p) => val.put_u32(*p),
        Attribute::UseCandidate => {}
        Attribute::Fingerprint(f) => val.put_u32(*f),
    }
    out.put_u16(attr.type_code());
    out.put_u16(val.len() as u16);
    out.put_slice(&val);
    let pad = (4 - val.len() % 4) % 4;
    out.put_bytes(0, pad);
}

fn take_addr(val: &[u8], xored: bool, txid: &[u8; 12]) -> Option<Addr> {
    if val.len() != 8 || val[1] != 0x01 {
        return None;
    }
    let port = u16::from_be_bytes([val[2], val[3]]);
    let ip = [val[4], val[5], val[6], val[7]];
    let addr = Addr::from_ip(Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]), port);
    if xored {
        let (p, o) = xor_addr(addr, txid);
        Some(Addr::from_ip(Ipv4Addr::new(o[0], o[1], o[2], o[3]), p))
    } else {
        Some(addr)
    }
}

fn decode_attr(at: u16, val: &[u8], txid: &[u8; 12]) -> Result<Option<Attribute>, DecodeStunError> {
    let bad = DecodeStunError::BadAttribute(at);
    let attr = match at {
        0x0001 => Attribute::MappedAddress(take_addr(val, false, txid).ok_or(bad)?),
        0x0020 => Attribute::XorMappedAddress(take_addr(val, true, txid).ok_or(bad)?),
        0x0012 => Attribute::XorPeerAddress(take_addr(val, true, txid).ok_or(bad)?),
        0x0016 => Attribute::XorRelayedAddress(take_addr(val, true, txid).ok_or(bad)?),
        0x0006 => Attribute::Username(String::from_utf8(val.to_vec()).map_err(|_| bad)?),
        0x8022 => Attribute::Software(String::from_utf8(val.to_vec()).map_err(|_| bad)?),
        0x0008 => {
            let mac: [u8; 32] = val.try_into().map_err(|_| bad)?;
            Attribute::MessageIntegrity(mac)
        }
        0x0009 => {
            if val.len() < 4 {
                return Err(bad);
            }
            let code = val[2] as u16 * 100 + val[3] as u16;
            let reason = String::from_utf8(val[4..].to_vec()).map_err(|_| bad)?;
            Attribute::ErrorCode(code, reason)
        }
        0x0013 => Attribute::Data(Bytes::copy_from_slice(val)),
        0x0024 => {
            let p: [u8; 4] = val.try_into().map_err(|_| bad)?;
            Attribute::Priority(u32::from_be_bytes(p))
        }
        0x0025 => Attribute::UseCandidate,
        // Unknown comprehension-optional attributes are skipped.
        _ => return Ok(None),
    };
    Ok(Some(attr))
}

/// Quick test whether `data` looks like a STUN message (used by the
/// traffic-sniffing dynamic detector, §III-C).
pub fn is_stun(data: &[u8]) -> bool {
    data.len() >= 20
        && data[0] & 0xc0 == 0
        && u32::from_be_bytes([data[4], data[5], data[6], data[7]]) == MAGIC_COOKIE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txid(b: u8) -> [u8; 12] {
        [b; 12]
    }

    #[test]
    fn binding_request_roundtrip() {
        let m = Message::binding_request(txid(7)).with(Attribute::Software("pdn-sim".into()));
        let wire = m.encode();
        assert!(is_stun(&wire));
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.class, Class::Request);
        assert_eq!(back.method, Method::Binding);
        assert_eq!(back.transaction_id, txid(7));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::Software(s) if s == "pdn-sim")));
        // The appended fingerprint decoded and verified.
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::Fingerprint(_))));
    }

    #[test]
    fn xor_mapped_address_roundtrip() {
        let mapped = Addr::new(203, 0, 113, 7, 54_321);
        let m = Message::binding_success(txid(1), mapped);
        let wire = m.encode();
        // The raw wire must NOT contain the plain port+IP contiguous bytes
        // (they are XOR'd) …
        let plain: Vec<u8> = {
            let mut v = mapped.port.to_be_bytes().to_vec();
            v.extend_from_slice(&mapped.ip.octets());
            v
        };
        assert!(!wire.windows(plain.len()).any(|w| w == plain.as_slice()));
        // … but decoding recovers the address.
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.mapped_address(), Some(mapped));
    }

    #[test]
    fn plain_mapped_address_visible_on_wire() {
        // The privacy point of §IV-D: a sniffer sees addresses in STUN.
        let mapped = Addr::new(198, 51, 100, 9, 4000);
        let m = Message::new(Class::Success, Method::Binding, txid(2))
            .with(Attribute::MappedAddress(mapped));
        let wire = m.encode();
        let octets = mapped.ip.octets();
        assert!(wire.windows(4).any(|w| w == octets));
    }

    #[test]
    fn corrupted_fingerprint_rejected() {
        let m = Message::binding_request(txid(3));
        let wire = m.encode();
        let mut bad = wire.to_vec();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert_eq!(
            Message::decode(&bad),
            Err(DecodeStunError::BadAttribute(0x8028))
        );
    }

    #[test]
    fn non_stun_rejected() {
        assert_eq!(
            Message::decode(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
            Err(DecodeStunError::NotStun)
        );
        assert_eq!(Message::decode(&[0u8; 10]), Err(DecodeStunError::Truncated));
        assert!(!is_stun(b"hello world, this is not stun at all"));
    }

    #[test]
    fn ice_check_attributes_roundtrip() {
        let m = Message::binding_request(txid(4))
            .with(Attribute::Username("remoteU:localU".into()))
            .with(Attribute::Priority(0x6e_7f_00_ff))
            .with(Attribute::UseCandidate)
            .with(Attribute::MessageIntegrity([0xab; 32]));
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.username(), Some("remoteU:localU"));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::UseCandidate)));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::Priority(p) if *p == 0x6e_7f_00_ff)));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::MessageIntegrity(mac) if mac == &[0xab; 32])));
    }

    #[test]
    fn error_code_roundtrip() {
        let m = Message::new(Class::Error, Method::Binding, txid(5))
            .with(Attribute::ErrorCode(401, "Unauthorized".into()));
        let back = Message::decode(&m.encode()).unwrap();
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::ErrorCode(401, r) if r == "Unauthorized")));
        assert_eq!(back.class, Class::Error);
    }

    #[test]
    fn turn_attributes_roundtrip() {
        let relayed = Addr::new(198, 51, 100, 1, 49_152);
        let peer = Addr::new(203, 0, 113, 9, 7000);
        let m = Message::new(Class::Success, Method::Allocate, txid(6))
            .with(Attribute::XorRelayedAddress(relayed))
            .with(Attribute::XorPeerAddress(peer))
            .with(Attribute::Data(Bytes::from_static(b"payload")));
        let back = Message::decode(&m.encode()).unwrap();
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::XorRelayedAddress(x) if *x == relayed)));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::XorPeerAddress(x) if *x == peer)));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::Data(d) if &d[..] == b"payload")));
    }

    #[test]
    fn odd_length_attributes_padded() {
        // "abc" needs one padding byte; the message must still parse.
        let m = Message::binding_request(txid(8)).with(Attribute::Username("abc".into()));
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.username(), Some("abc"));
    }

    #[test]
    fn message_integrity_roundtrip() {
        // sign → encode → decode → verify, through the wire format.
        let key = HmacKey::new(b"ice-password-p1234");
        let m = Message::binding_request(txid(10))
            .with(Attribute::Username("a:b".into()))
            .with_integrity(&key);
        let wire = m.encode();
        let back = Message::decode(&wire).unwrap();
        assert!(back.verify_integrity(&key));
        // Wrong password must not verify.
        assert!(!back.verify_integrity(&HmacKey::new(b"other-password")));
        // The keyed MAC is bit-identical to the per-call key schedule.
        let raw = pdn_crypto::hmac::hmac_sha256(b"ice-password-p1234", &txid(10));
        assert!(back
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::MessageIntegrity(mac) if mac == &raw)));
    }

    #[test]
    fn message_integrity_bit_flip_rejected() {
        let key = HmacKey::new(b"ice-password-p1234");
        let m = Message::binding_request(txid(11)).with_integrity(&key);
        let wire = m.encode();
        // Flip one bit inside the MESSAGE-INTEGRITY value (attribute header
        // is 4 bytes after the 20-byte message header).
        let mut bad = wire.to_vec();
        bad[24] ^= 0x80;
        // Re-stamp the fingerprint so only the MAC is wrong.
        let n = bad.len();
        let crc = pdn_crypto::crc32::stun_fingerprint(&bad[..n - 8]);
        bad[n - 4..].copy_from_slice(&crc.to_be_bytes());
        let back = Message::decode(&bad).unwrap();
        assert!(!back.verify_integrity(&key));
    }

    #[test]
    fn missing_integrity_does_not_verify() {
        let key = HmacKey::new(b"pw");
        let back = Message::decode(&Message::binding_request(txid(12)).encode()).unwrap();
        assert!(!back.verify_integrity(&key));
    }

    #[test]
    fn all_class_method_combos() {
        for class in [
            Class::Request,
            Class::Indication,
            Class::Success,
            Class::Error,
        ] {
            for method in [
                Method::Binding,
                Method::Allocate,
                Method::Send,
                Method::Data,
            ] {
                let m = Message::new(class, method, txid(9));
                let back = Message::decode(&m.encode()).unwrap();
                assert_eq!(back.class, class);
                assert_eq!(back.method, method);
            }
        }
    }
}

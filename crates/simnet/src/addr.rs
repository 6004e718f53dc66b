//! Network addresses and bogon classification.
//!
//! The paper's IP-leak field study (§IV-D) classifies harvested addresses
//! into public IPs and *bogons* — private (RFC 1918), carrier-grade NAT
//! (RFC 6598), and reserved ranges — which appear when NAT traversal
//! replies with unreachable candidates. [`IpClass`] reproduces that
//! taxonomy.

use std::net::Ipv4Addr;

/// A transport address: IPv4 address plus UDP/TCP port.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Addr {
    /// The IPv4 address.
    pub ip: Ipv4Addr,
    /// The port number.
    pub port: u16,
}

impl Addr {
    /// Creates an address from octets and a port.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Addr {
            ip: Ipv4Addr::new(a, b, c, d),
            port,
        }
    }

    /// Creates an address from an [`Ipv4Addr`] and a port.
    pub const fn from_ip(ip: Ipv4Addr, port: u16) -> Self {
        Addr { ip, port }
    }

    /// Classification of this address's IP.
    pub fn class(self) -> IpClass {
        IpClass::of(self.ip)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Classification of an IPv4 address, following the paper's bogon taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IpClass {
    /// Globally routable.
    Public,
    /// RFC 1918 private space (10/8, 172.16/12, 192.168/16).
    Private,
    /// RFC 6598 shared address space for carrier-grade NAT (100.64/10).
    CgNat,
    /// Loopback, link-local, documentation, multicast, class E, 0/8.
    Reserved,
}

impl IpClass {
    /// Classifies `ip`.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::net::Ipv4Addr;
    /// use pdn_simnet::IpClass;
    ///
    /// assert_eq!(IpClass::of(Ipv4Addr::new(8, 8, 8, 8)), IpClass::Public);
    /// assert_eq!(IpClass::of(Ipv4Addr::new(192, 168, 1, 2)), IpClass::Private);
    /// assert_eq!(IpClass::of(Ipv4Addr::new(100, 64, 0, 1)), IpClass::CgNat);
    /// ```
    pub fn of(ip: Ipv4Addr) -> IpClass {
        let [a, b, _, _] = ip.octets();
        if ip.is_private() {
            IpClass::Private
        } else if a == 100 && (64..128).contains(&b) {
            IpClass::CgNat
        } else if ip.is_loopback()
            || ip.is_link_local()
            || ip.is_broadcast()
            || ip.is_documentation()
            || ip.is_multicast()
            || a == 0
            || a >= 240
        {
            IpClass::Reserved
        } else {
            IpClass::Public
        }
    }

    /// Whether this class is a bogon (anything non-public).
    pub fn is_bogon(self) -> bool {
        self != IpClass::Public
    }
}

impl std::fmt::Display for IpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IpClass::Public => "public",
            IpClass::Private => "private",
            IpClass::CgNat => "nat",
            IpClass::Reserved => "reserved",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Addr::new(1, 2, 3, 4, 443).to_string(), "1.2.3.4:443");
    }

    #[test]
    fn classification_private() {
        for ip in [
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 31, 255, 255),
            Ipv4Addr::new(192, 168, 0, 1),
        ] {
            assert_eq!(IpClass::of(ip), IpClass::Private, "{ip}");
        }
        // Near-misses are public.
        assert_eq!(IpClass::of(Ipv4Addr::new(172, 32, 0, 1)), IpClass::Public);
        assert_eq!(IpClass::of(Ipv4Addr::new(192, 169, 0, 1)), IpClass::Public);
    }

    #[test]
    fn classification_cgnat() {
        assert_eq!(IpClass::of(Ipv4Addr::new(100, 64, 0, 0)), IpClass::CgNat);
        assert_eq!(
            IpClass::of(Ipv4Addr::new(100, 127, 255, 255)),
            IpClass::CgNat
        );
        assert_eq!(IpClass::of(Ipv4Addr::new(100, 63, 0, 1)), IpClass::Public);
        assert_eq!(IpClass::of(Ipv4Addr::new(100, 128, 0, 1)), IpClass::Public);
    }

    #[test]
    fn classification_reserved() {
        for ip in [
            Ipv4Addr::new(127, 0, 0, 1),
            Ipv4Addr::new(169, 254, 1, 1),
            Ipv4Addr::new(0, 1, 2, 3),
            Ipv4Addr::new(224, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(240, 0, 0, 1),
        ] {
            assert!(IpClass::of(ip).is_bogon(), "{ip}");
        }
    }

    #[test]
    fn public_is_not_bogon() {
        assert!(!IpClass::of(Ipv4Addr::new(93, 184, 216, 34)).is_bogon());
    }
}

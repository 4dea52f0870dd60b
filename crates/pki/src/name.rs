//! X.500-style distinguished names, rendered in the slash form GSI tools
//! use (e.g. `/C=US/O=Globus/CN=Von Welch`).
//!
//! Proxy certificates extend their issuer's name with one extra `CN`
//! component (RFC 3820 §3.4); [`DistinguishedName::with_extra_cn`] and
//! [`DistinguishedName::is_proxy_extension_of`] implement that rule.

use crate::encoding::{Codec, Decoder, Encoder};
use crate::PkiError;
use std::fmt;

/// One relative distinguished name component, e.g. `CN=Jane`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct NameComponent {
    /// Attribute type, e.g. `C`, `O`, `OU`, `CN`.
    pub attr: String,
    /// Attribute value.
    pub value: String,
}

/// An ordered sequence of name components.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct DistinguishedName {
    components: Vec<NameComponent>,
}

impl DistinguishedName {
    /// Parse the slash form: `/C=US/O=Org/CN=Name`. Empty values are
    /// rejected; attribute names are normalized to uppercase.
    pub fn parse(s: &str) -> Result<Self, PkiError> {
        if !s.starts_with('/') {
            return Err(PkiError::BadName("must start with '/'"));
        }
        let mut components = Vec::new();
        for part in s[1..].split('/') {
            if part.is_empty() {
                return Err(PkiError::BadName("empty component"));
            }
            let (attr, value) = part
                .split_once('=')
                .ok_or(PkiError::BadName("component missing '='"))?;
            if attr.is_empty() || value.is_empty() {
                return Err(PkiError::BadName("empty attribute or value"));
            }
            components.push(NameComponent {
                attr: attr.to_uppercase(),
                value: value.to_string(),
            });
        }
        if components.is_empty() {
            return Err(PkiError::BadName("no components"));
        }
        Ok(DistinguishedName { components })
    }

    /// Return this name extended with one extra `CN=<value>` component —
    /// the RFC 3820 subject construction for a proxy certificate.
    pub fn with_extra_cn(&self, value: &str) -> DistinguishedName {
        let mut components = self.components.clone();
        components.push(NameComponent {
            attr: "CN".to_string(),
            value: value.to_string(),
        });
        DistinguishedName { components }
    }

    /// RFC 3820 name chaining: `self` must equal `issuer` plus exactly one
    /// additional `CN` component.
    pub fn is_proxy_extension_of(&self, issuer: &DistinguishedName) -> bool {
        self.components.len() == issuer.components.len() + 1
            && self.components[..issuer.components.len()] == issuer.components[..]
            && self.components.last().map(|c| c.attr.as_str()) == Some("CN")
    }

    /// Strip trailing `CN` proxy components down to `base_len` components —
    /// used to recover the end-entity ("base") identity from a proxy
    /// subject.
    pub fn truncated(&self, base_len: usize) -> DistinguishedName {
        DistinguishedName {
            components: self.components[..base_len.min(self.components.len())].to_vec(),
        }
    }
}

impl Codec for DistinguishedName {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.components, |e, c| {
            e.put_str(&c.attr).put_str(&c.value);
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        let components = dec.get_seq(|d| {
            Ok(NameComponent {
                attr: d.get_str()?,
                value: d.get_str()?,
            })
        })?;
        Ok(DistinguishedName { components })
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.components {
            write!(f, "/{}={}", c.attr, c.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "/C=US/O=Argonne/OU=MCS/CN=Von Welch";
        let dn = DistinguishedName::parse(s).unwrap();
        assert_eq!(dn.to_string(), s);
        assert_eq!(dn.components.len(), 4);
        assert_eq!(dn.components[3].value, "Von Welch");
    }

    #[test]
    fn parse_normalizes_attr_case() {
        let dn = DistinguishedName::parse("/c=US/cn=x").unwrap();
        assert_eq!(dn.to_string(), "/C=US/CN=x");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "CN=x", "/", "/CN", "/CN=", "/=x", "//CN=x"] {
            assert!(DistinguishedName::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn value_may_contain_equals() {
        let dn = DistinguishedName::parse("/CN=a=b").unwrap();
        assert_eq!(dn.components[0].value, "a=b");
    }

    #[test]
    fn proxy_extension_rules() {
        let base = DistinguishedName::parse("/O=Grid/CN=Jane").unwrap();
        let proxy = base.with_extra_cn("12345");
        assert_eq!(proxy.to_string(), "/O=Grid/CN=Jane/CN=12345");
        assert!(proxy.is_proxy_extension_of(&base));
        assert!(!base.is_proxy_extension_of(&proxy));
        assert!(!base.is_proxy_extension_of(&base));

        // Two levels of proxy.
        let proxy2 = proxy.with_extra_cn("999");
        assert!(proxy2.is_proxy_extension_of(&proxy));
        assert!(!proxy2.is_proxy_extension_of(&base));
    }

    #[test]
    fn proxy_extension_requires_cn() {
        let base = DistinguishedName::parse("/O=Grid/CN=Jane").unwrap();
        let mut comps = base.components.clone();
        comps.push(NameComponent {
            attr: "OU".to_string(),
            value: "x".to_string(),
        });
        let not_proxy = DistinguishedName { components: comps };
        assert!(!not_proxy.is_proxy_extension_of(&base));
    }

    #[test]
    fn proxy_extension_requires_same_prefix() {
        let base = DistinguishedName::parse("/O=Grid/CN=Jane").unwrap();
        let other = DistinguishedName::parse("/O=Grid/CN=Eve/CN=1").unwrap();
        assert!(!other.is_proxy_extension_of(&base));
    }

    #[test]
    fn truncation_recovers_base() {
        let base = DistinguishedName::parse("/O=Grid/CN=Jane").unwrap();
        let p2 = base.with_extra_cn("1").with_extra_cn("2");
        assert_eq!(p2.truncated(2), base);
        assert_eq!(p2.truncated(10), p2);
    }

    #[test]
    fn codec_roundtrip() {
        let dn = DistinguishedName::parse("/C=US/O=USC/OU=ISI/CN=Laura Pearlman").unwrap();
        let bytes = dn.to_bytes();
        assert_eq!(DistinguishedName::from_bytes(&bytes).unwrap(), dn);
    }
}

//! GRIM — the Grid Resource Identity Mapper (paper §5.3 step 5).
//!
//! "GRIM is a privileged program (typically setuid-root) that accesses
//! the local host credentials and from them generates a set of GSI proxy
//! credentials for the LMJFS. This proxy credential has embedded in it
//! the user's Grid identity, local account name, and local policy to
//! help the requestor verify that the LMJFS is appropriate for its
//! needs."
//!
//! The embedding uses a restricted proxy with policy language
//! `grim-policy-v1`; [`GrimPolicy`] is the payload. The requestor-side
//! check is [`authorize_mjs`].

use gridsec_bignum::prime::EntropySource;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_pki::PkiError;

use crate::GramError;

/// RFC 3820 policy-language id for GRIM-embedded attributes.
pub(crate) const GRIM_POLICY_LANGUAGE: &str = "grim-policy-v1";

/// The attributes GRIM embeds in the proxy it issues.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct GrimPolicy {
    /// Grid identity of the user the LMJFS serves.
    pub user_identity: DistinguishedName,
    /// Local account the LMJFS runs in.
    pub account: String,
    /// Free-form local policy statement (e.g. permitted queues).
    pub local_policy: String,
}

impl Codec for GrimPolicy {
    fn encode(&self, enc: &mut Encoder) {
        self.user_identity.encode(enc);
        enc.put_str(&self.account).put_str(&self.local_policy);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(GrimPolicy {
            user_identity: DistinguishedName::decode(dec)?,
            account: dec.get_str()?,
            local_policy: dec.get_str()?,
        })
    }
}

/// Run GRIM: from the host credential, mint a proxy credential for an
/// LMJFS serving `user_identity` in `account`.
///
/// In the simulation the caller (the resource) is responsible for the
/// privilege bookkeeping — spawning the setuid process in the OS table
/// and killing it after this single operation; see
/// [`crate::resource::GramResource`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn issue_grim_credential<E: EntropySource>(
    rng: &mut E,
    host_credential: &Credential,
    user_identity: &DistinguishedName,
    account: &str,
    local_policy: &str,
    key_bits: usize,
    now: u64,
    lifetime: u64,
) -> Result<Credential, GramError> {
    let policy = GrimPolicy {
        user_identity: user_identity.clone(),
        account: account.to_string(),
        local_policy: local_policy.to_string(),
    };
    issue_proxy(
        rng,
        host_credential,
        ProxyType::Restricted {
            language: GRIM_POLICY_LANGUAGE.to_string(),
            policy: policy.to_bytes(),
        },
        key_bits,
        now,
        lifetime,
    )
    .map_err(|e| GramError::Os(format!("GRIM proxy issuance failed: {e}")))
}

/// Extract the GRIM policy from a validated peer identity (requestor-side
/// half of step 7's mutual authorization).
pub(crate) fn extract_grim_policy(identity: &ValidatedIdentity) -> Option<GrimPolicy> {
    identity
        .restrictions
        .iter()
        .find(|(lang, _)| lang == GRIM_POLICY_LANGUAGE)
        .and_then(|(_, bytes)| GrimPolicy::from_bytes(bytes).ok())
}

/// Step 7's client-side authorization of the MJS, run on every context,
/// full or resumed: "the requestor authorizes the MJS as having a GRIM
/// credential issued from an appropriate host credential and containing
/// a Grid identity matching its own." `host` is the host identity the
/// requestor meant to contact, `user` its own grid identity; `account`,
/// when known, must be the account the GRIM credential names — the
/// paper's "running not only on the right host but also in an
/// appropriate account".
pub(crate) fn authorize_mjs(
    peer: &ValidatedIdentity,
    host: &DistinguishedName,
    user: &DistinguishedName,
    account: Option<&str>,
) -> Result<GrimPolicy, GramError> {
    let policy = extract_grim_policy(peer)
        .ok_or(GramError::GrimRejected("peer presented no GRIM credential"))?;
    if peer.base_identity != *host {
        return Err(GramError::GrimRejected(
            "GRIM credential chains to the wrong host",
        ));
    }
    if policy.user_identity != *user {
        return Err(GramError::GrimRejected(
            "GRIM credential embeds a different user identity",
        ));
    }
    if account.is_some_and(|a| a != policy.account) {
        return Err(GramError::GrimRejected(
            "GRIM credential names a different account",
        ));
    }
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    #[test]
    fn grim_credential_chains_to_host_and_embeds_policy() {
        let mut rng = ChaChaRng::from_seed_bytes(b"grim tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host compute1"),
            vec!["compute1".into()],
            512,
            0,
            500_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        let cred = issue_grim_credential(
            &mut rng,
            &host,
            &dn("/O=G/CN=Jane"),
            "jdoe",
            "queues=batch",
            512,
            100,
            3600,
        )
        .unwrap();

        let id = validate_chain(cred.chain(), &trust, 200).unwrap();
        // Chains to the host identity.
        assert_eq!(id.base_identity, dn("/O=G/CN=host compute1"));
        // Embedded attributes are recoverable.
        let policy = extract_grim_policy(&id).unwrap();
        assert_eq!(policy.user_identity, dn("/O=G/CN=Jane"));
        assert_eq!(policy.account, "jdoe");
        assert_eq!(policy.local_policy, "queues=batch");
    }

    #[test]
    fn policy_codec_roundtrip() {
        let p = GrimPolicy {
            user_identity: dn("/O=G/CN=U"),
            account: "u1".to_string(),
            local_policy: String::new(),
        };
        assert_eq!(GrimPolicy::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn non_grim_identity_has_no_policy() {
        let mut rng = ChaChaRng::from_seed_bytes(b"no grim");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, 1000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let id = validate_chain(user.chain(), &trust, 10).unwrap();
        assert!(extract_grim_policy(&id).is_none());
    }
}

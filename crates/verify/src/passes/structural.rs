//! Pass 1 — structural checks on the wire-format geometry.
//!
//! Everything here is decidable from the program alone: field bit-ranges
//! must lie inside the FN locations area (including `F_MAC`'s implicit
//! tag-slot write), counts must fit their header fields, fixed-width
//! operations must get fields of the right width, and the tag bit must
//! agree with where the operation can run.

use crate::diag::{DiagCode, Diagnostic};
use crate::program::FnProgram;
use dip_fnops::ops::mac_op::TAG_BITS as MAC_TAG_BITS;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::{MAX_FN_LOC_LEN, MAX_FN_NUM};

/// Runs the structural pass.
pub fn check(program: &FnProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc_bits = program.loc_bits();

    if program.fns.len() > MAX_FN_NUM {
        diags.push(Diagnostic::error(
            DiagCode::FnNumOverflow,
            format!(
                "{} FN triples exceed the 8-bit FN number limit of {MAX_FN_NUM}",
                program.fns.len()
            ),
        ));
    }
    if program.loc_len > MAX_FN_LOC_LEN {
        diags.push(Diagnostic::error(
            DiagCode::LocLenOverflow,
            format!(
                "locations area of {} bytes exceeds the 10-bit fn_loc_len limit of {MAX_FN_LOC_LEN}",
                program.loc_len
            ),
        ));
    }

    for (i, t) in program.fns.iter().enumerate() {
        check_bounds(i, t, loc_bits, &mut diags);
        check_width(i, t, &mut diags);
        check_tag(i, t, &mut diags);
    }
    diags
}

fn check_bounds(i: usize, t: &FnTriple, loc_bits: usize, diags: &mut Vec<Diagnostic>) {
    let span = (usize::from(t.field_loc), t.field_end());
    if t.field_end() > loc_bits {
        diags.push(
            Diagnostic::error(
                DiagCode::FieldOutOfBounds,
                format!(
                    "{} target field ends at bit {} but the locations area holds only {loc_bits} bits",
                    t.key.notation(),
                    t.field_end()
                ),
            )
            .at_triple(i)
            .with_span(span),
        );
        return;
    }
    // F_MAC writes its 128-bit tag just past the covered field; the router
    // drops the packet at runtime when that slot is missing, and the
    // accepted-programs-execute guarantee needs the slot checked here.
    if t.key == FnKey::Mac && !t.host {
        let tag = (t.field_end(), t.field_end() + usize::from(MAC_TAG_BITS));
        if tag.1 > loc_bits {
            diags.push(
                Diagnostic::error(
                    DiagCode::FieldOutOfBounds,
                    format!(
                        "F_MAC tag slot ends at bit {} but the locations area holds only {loc_bits} bits",
                        tag.1
                    ),
                )
                .at_triple(i)
                .with_span(tag),
            );
        }
    }
}

fn check_width(i: usize, t: &FnTriple, diags: &mut Vec<Diagnostic>) {
    // F_parm and F_mark operate on exactly one 128-bit block (session id /
    // PVF); their modules drop other widths at runtime.
    if matches!(t.key, FnKey::Parm | FnKey::Mark) && t.field_len != 128 {
        diags.push(
            Diagnostic::error(
                DiagCode::BadFieldWidth,
                format!("{} requires a 128-bit field, got {} bits", t.key.notation(), t.field_len),
            )
            .at_triple(i)
            .with_span((usize::from(t.field_loc), t.field_end())),
        );
    }
}

fn check_tag(i: usize, t: &FnTriple, diags: &mut Vec<Diagnostic>) {
    // F_ver is the destination's verification (§2.3: "the host receives
    // and verifies the packet by performing F_ver") — a router-tagged one
    // would run mid-path with keys only the destination holds.
    if t.key == FnKey::Ver && !t.host {
        diags.push(
            Diagnostic::error(
                DiagCode::TagBitInconsistent,
                "F_ver is a host operation; its tag bit must be set".to_string(),
            )
            .at_triple(i),
        );
    }
    // The path-authentication chain needs *every router* to participate
    // (§2.4); tagging one of its ops host-side silently skips it on path.
    if matches!(t.key, FnKey::Parm | FnKey::Mac | FnKey::Mark) && t.host {
        diags.push(
            Diagnostic::error(
                DiagCode::TagBitInconsistent,
                format!(
                    "{} runs on every on-path router; its tag bit must be clear",
                    t.key.notation()
                ),
            )
            .at_triple(i),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt_program() -> FnProgram {
        FnProgram::new(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(288, 128, FnKey::Mark),
                FnTriple::host(0, 544, FnKey::Ver),
            ],
            68,
            false,
        )
    }

    #[test]
    fn paper_opt_chain_is_structurally_clean() {
        assert!(check(&opt_program()).is_empty());
    }

    #[test]
    fn field_past_locations_is_flagged() {
        let p = FnProgram::new(vec![FnTriple::router(0, 64, FnKey::Match32)], 4, false);
        let d = check(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::FieldOutOfBounds);
        assert_eq!(d[0].span, Some((0, 64)));
        assert_eq!(d[0].triple, Some(0));
    }

    #[test]
    fn mac_tag_slot_must_fit_too() {
        // 58-byte area = 464 bits: the 416-bit coverage fits, the tag
        // slot (416..544) does not.
        let p = FnProgram::new(
            vec![FnTriple::router(128, 128, FnKey::Parm), FnTriple::router(0, 416, FnKey::Mac)],
            58,
            false,
        );
        let d = check(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::FieldOutOfBounds);
        assert_eq!(d[0].span, Some((416, 544)));
        assert_eq!(d[0].triple, Some(1));
    }

    #[test]
    fn host_tagged_mac_skips_the_tag_slot_check() {
        // A host-tagged Mac is already tag-inconsistent; don't pile on an
        // out-of-bounds for a write routers will never perform.
        let p = FnProgram::new(vec![FnTriple::host(0, 416, FnKey::Mac)], 52, false);
        let d = check(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::TagBitInconsistent);
    }

    #[test]
    fn fn_num_and_loc_len_overflow() {
        let p = FnProgram::new(vec![FnTriple::router(0, 8, FnKey::Source); 256], 1, false);
        assert!(check(&p).iter().any(|d| d.code == DiagCode::FnNumOverflow));
        let p = FnProgram::new(Vec::new(), 1024, false);
        let d = check(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::LocLenOverflow);
    }

    #[test]
    fn parm_and_mark_require_128_bits() {
        for key in [FnKey::Parm, FnKey::Mark] {
            let p = FnProgram::new(vec![FnTriple::router(0, 64, key)], 8, false);
            let d = check(&p);
            assert_eq!(d.len(), 1, "{key:?}");
            assert_eq!(d[0].code, DiagCode::BadFieldWidth);
        }
        // 128 bits is fine.
        let p = FnProgram::new(vec![FnTriple::router(0, 128, FnKey::Parm)], 16, false);
        assert!(check(&p).is_empty());
    }

    #[test]
    fn tag_bit_rules() {
        let p = FnProgram::new(vec![FnTriple::router(0, 544, FnKey::Ver)], 68, false);
        let d = check(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, DiagCode::TagBitInconsistent);

        for key in [FnKey::Parm, FnKey::Mac, FnKey::Mark] {
            let len = if key == FnKey::Mac { 416 } else { 128 };
            let p = FnProgram::new(vec![FnTriple::host(0, len, key)], 68, false);
            assert!(check(&p).iter().any(|d| d.code == DiagCode::TagBitInconsistent), "{key:?}");
        }
    }

    #[test]
    fn zero_length_field_at_the_boundary_is_fine() {
        let p = FnProgram::new(vec![FnTriple::router(32, 0, FnKey::Source)], 4, false);
        assert!(check(&p).is_empty());
    }
}

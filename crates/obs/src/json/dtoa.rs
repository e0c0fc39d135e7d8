//! Number text for [`super::JsonWriter`]: `u64` counts in decimal, and
//! finite `f64` values in exactly the bytes of Rust's `{:?}`.
//!
//! Float digits come from Ryu (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal inside the value's
//! rounding interval, and of those the one closest to the value. One rule
//! differs from reference Ryu on purpose: an exact tie between the two
//! closest candidates rounds *up*, as `core::fmt` does, where Ryu rounds
//! half to even. `f64::from_bits(0x4317_9085_685d_83c9)` is exactly
//! `1658206780088562.25`; `{:?}` prints `1658206780088562.3`.
//!
//! The layout is `core::fmt`'s `Debug`: plain decimal with at least one
//! fractional digit when `1e-4 <= |v| < 1e16` (`3.0`, `0.0001`),
//! otherwise `d[.ddd]e[-]x` (`1e-5`, `1.5e300`); `-0.0` keeps its sign.
//!
//! The 128-bit power-of-5 multipliers are computed once, at first use,
//! with exact multi-precision integer arithmetic, so no table constant
//! has to be trusted.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits kept of `5^i` and of `2^k / 5^q` (Ryu's `DOUBLE_POW5_BITCOUNT`
/// and `DOUBLE_POW5_INV_BITCOUNT`).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// `q` reaches 290 for the largest exponent (`e2 = 969`).
const POW5_INV_LEN: usize = 291;
/// `i` reaches 325 for the subnormals (`e2 = -1076`).
const POW5_LEN: usize = 326;

/// The longest rendering of a finite value: `-1.2345678901234567e-308`
/// is 24 bytes; decimal layouts stay below that.
const MAX_F64_LEN: usize = 25;

/// `"00" "01" … "99"`: two digits per division by 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `value` in decimal.
pub(super) fn push_u64(out: &mut String, value: u64) {
    let mut buf = [0u8; 20];
    let len = decimal_len(value);
    write_digits(value, &mut buf[..len]);
    out.push_str(ascii(&buf[..len]));
}

/// Appends a finite `value` exactly as `format!("{value:?}")` would.
pub(super) fn push_f64(out: &mut String, value: f64) {
    debug_assert!(value.is_finite(), "non-finite floats are written as null");
    let mut buf = [0u8; MAX_F64_LEN];
    let len = format_finite(value, &mut buf);
    out.push_str(ascii(&buf[..len]));
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("number text is ASCII")
}

fn decimal_len(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Fills `dst` with the low `dst.len()` decimal digits of `value`, four
/// at a time: one 64-bit division splits off eight digits while the value
/// is wider than 32 bits, and the rest is 32-bit arithmetic.
fn write_digits(mut value: u64, dst: &mut [u8]) {
    let mut end = dst.len();
    while value >> 32 != 0 && end >= 8 {
        let low = (value % 100_000_000) as u32;
        value /= 100_000_000;
        write_four(low % 10_000, &mut dst[end - 4..end]);
        write_four(low / 10_000, &mut dst[end - 8..end - 4]);
        end -= 8;
    }
    let mut value = value as u32;
    while end >= 4 {
        write_four(value % 10_000, &mut dst[end - 4..end]);
        value /= 10_000;
        end -= 4;
    }
    if end >= 2 {
        let pair = (value % 100) as usize * 2;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        value /= 100;
        end -= 2;
    }
    if end == 1 {
        dst[0] = b'0' + (value % 10) as u8;
    }
}

/// The four decimal digits of `value < 10_000`.
fn write_four(value: u32, dst: &mut [u8]) {
    let (high, low) = ((value / 100) as usize * 2, (value % 100) as usize * 2);
    dst[..2].copy_from_slice(&DIGIT_PAIRS[high..high + 2]);
    dst[2..4].copy_from_slice(&DIGIT_PAIRS[low..low + 2]);
}

fn format_finite(value: f64, buf: &mut [u8; MAX_F64_LEN]) -> usize {
    let bits = value.to_bits();
    let sign = usize::from(value.is_sign_negative());
    buf[0] = b'-';
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let b = &mut buf[sign..];
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        b[..3].copy_from_slice(b"0.0");
        return sign + 3;
    }
    let (digits, exp10) = shortest(ieee_mantissa, ieee_exponent);
    let n = decimal_len(digits);
    // value = 0.d1d2…dn × 10^point
    let point = n as i32 + exp10;
    let len = if (1e-4..1e16).contains(&value.abs()) {
        if point <= 0 {
            let zeros = point.unsigned_abs() as usize;
            b[..2].copy_from_slice(b"0.");
            b[2..2 + zeros].fill(b'0');
            write_digits(digits, &mut b[2 + zeros..2 + zeros + n]);
            2 + zeros + n
        } else if (point as usize) < n {
            let point = point as usize;
            write_digits(digits, &mut b[1..=n]);
            b.copy_within(1..=point, 0);
            b[point] = b'.';
            n + 1
        } else {
            let point = point as usize;
            write_digits(digits, &mut b[..n]);
            b[n..point].fill(b'0');
            b[point..point + 2].copy_from_slice(b".0");
            point + 2
        }
    } else {
        write_digits(digits, &mut b[1..=n]);
        b[0] = b[1];
        let mut len = 1;
        if n > 1 {
            b[1] = b'.';
            len = n + 1;
        }
        b[len] = b'e';
        len += 1;
        let exp = point - 1;
        if exp < 0 {
            b[len] = b'-';
            len += 1;
        }
        let exp = u64::from(exp.unsigned_abs());
        let width = decimal_len(exp);
        write_digits(exp, &mut b[len..len + width]);
        len + width
    };
    sign + len
}

/// Ryu's `d2d` with ties rounded up: the shortest digits `d` and exponent
/// `e` with `d × 10^e` inside the rounding interval of the (nonzero)
/// double with these IEEE fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing reads both interval bounds back as this value
    // exactly when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // 0 at a power of two (except the smallest normal), where the lower
    // neighbour is half as far away as the upper one.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let tables = tables();

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = tables.inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 21 {
            // At most one of mp, mv and mm is a multiple of 5.
            if mv % 5 != 0 {
                if accept_bounds {
                    vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
                } else {
                    vp -= u64::from(multiple_of_pow5(mv + 2, q));
                }
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = tables.pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing 0 bit iff mm_shift = 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 always has a trailing 0 bit.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate;
    // `last` is the most significant digit dropped from vr.
    let mut removed = 0;
    let mut last = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound itself is inside the interval and shorter still.
        while vm % 10 == 0 {
            last = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr + 1 when vr fell out of the interval, or the dropped part is at
    // least one half (an exact half included: `core::fmt` rounds ties up).
    let out_of_bounds = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
    (vr + u64::from(out_of_bounds || last >= 5), e10 + removed)
}

/// `floor(m × mul / 2^j)` for a 128-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `ceil(log2(5^e))` (`1` at `e = 0`): the bit length of `5^e`, for
/// `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// Ryu's multipliers: `pow[i]` is the top 125 bits of `5^i` and `inv[q]`
/// is `floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1`.
struct Pow5Tables {
    pow: Vec<u128>,
    inv: Vec<u128>,
}

/// Little-endian 64-bit limbs; `5^325` needs 755 bits.
const LIMBS: usize = 12;
type Big = [u64; LIMBS];

fn tables() -> &'static Pow5Tables {
    static TABLES: OnceLock<Pow5Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables =
            Pow5Tables { pow: Vec::with_capacity(POW5_LEN), inv: Vec::with_capacity(POW5_INV_LEN) };
        let mut pow5: Big = [0; LIMBS];
        pow5[0] = 1;
        for i in 0..POW5_LEN {
            let bits = bit_len(&pow5);
            tables.pow.push(shifted(&pow5, bits - POW5_BITCOUNT));
            if i < POW5_INV_LEN {
                tables.inv.push(inverse(&pow5, bits) + 1);
            }
            mul5(&mut pow5);
        }
        tables
    })
}

fn bit_len(x: &Big) -> i32 {
    x.iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |top| 64 * top as i32 + 64 - x[top].leading_zeros() as i32)
}

/// `floor(x / 2^shift)` for `shift >= 0`, `x × 2^-shift` otherwise; the
/// result must fit 128 bits.
fn shifted(x: &Big, shift: i32) -> u128 {
    (0..128).filter(|&b| bit(x, b + shift)).fold(0, |acc, b| acc | 1 << b)
}

fn bit(x: &Big, n: i32) -> bool {
    usize::try_from(n)
        .ok()
        .filter(|&n| n < 64 * LIMBS)
        .is_some_and(|n| x[n / 64] >> (n % 64) & 1 == 1)
}

/// `floor(2^(bits - 1 + 125) / d)` for `d` of bit length `bits`, by long
/// division one quotient bit at a time: the remainder starts at
/// `2^(bits - 1) <= d`, so the quotient has at most 126 bits.
fn inverse(d: &Big, bits: i32) -> u128 {
    let mut rem: Big = [0; LIMBS];
    let top = (bits - 1) as usize;
    rem[top / 64] = 1 << (top % 64);
    let mut quotient = 0;
    for step in 0..=POW5_INV_BITCOUNT {
        if step > 0 {
            shl1(&mut rem);
        }
        quotient <<= 1;
        if rem.iter().rev().ge(d.iter().rev()) {
            sub(&mut rem, d);
            quotient |= 1;
        }
    }
    quotient
}

fn mul5(x: &mut Big) {
    let mut carry = 0;
    for limb in x.iter_mut() {
        let product = u128::from(*limb) * 5 + carry;
        *limb = product as u64;
        carry = product >> 64;
    }
    assert_eq!(carry, 0, "5^i outgrew the table's limbs");
}

fn shl1(x: &mut Big) {
    let mut carry = 0;
    for limb in x.iter_mut() {
        let next = *limb >> 63;
        *limb = *limb << 1 | carry;
        carry = next;
    }
    assert_eq!(carry, 0, "remainder outgrew the table's limbs");
}

fn sub(x: &mut Big, y: &Big) {
    let mut borrow = false;
    for (a, &b) in x.iter_mut().zip(y) {
        let (diff, under) = a.overflowing_sub(b);
        let (diff, under2) = diff.overflowing_sub(u64::from(borrow));
        *a = diff;
        borrow = under || under2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(value: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, value);
        out
    }

    #[test]
    fn tables_match_the_published_ryu_entries() {
        let t = tables();
        assert_eq!(t.inv.len(), POW5_INV_LEN);
        assert_eq!(t.pow.len(), POW5_LEN);
        assert_eq!(t.inv[0], 0x2000_0000_0000_0000_0000_0000_0000_0001);
        assert_eq!(t.inv[1], 0x1999_9999_9999_9999_9999_9999_9999_999a);
        assert_eq!(t.inv[2], 0x147a_e147_ae14_7ae1_47ae_147a_e147_ae15);
        assert_eq!(t.inv[290], 0x18f2_b061_aea0_7183_bab3_beb7_3ded_4483);
        assert_eq!(t.pow[0], 0x1000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(t.pow[1], 0x1400_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(t.pow[325], 0x18b4_0a4e_ec43_7c52_78e1_316e_60a4_8310);
        // Below 2^125 the entry is 5^i itself, shifted up to 125 bits.
        let mut exact = 1u128;
        for (i, &entry) in t.pow.iter().enumerate().take(54) {
            assert_eq!(entry, exact << (125 - (128 - exact.leading_zeros())), "pow[{i}]");
            exact *= 5;
        }
    }

    #[test]
    fn layout_follows_debug() {
        for (value, want) in [
            (3.0, "3.0"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (0.1, "0.1"),
            (1e-4, "0.0001"),
            (1e-5, "1e-5"),
            (1.5e300, "1.5e300"),
            (1e16, "1e16"),
            (9_999_999_999_999_998.0, "9999999999999998.0"),
            (123_456.789, "123456.789"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (-f64::MAX, "-1.7976931348623157e308"),
            (5e-324, "5e-324"),
            (f64::from_bits(0x4317_9085_685d_83c9), "1658206780088562.3"),
        ] {
            assert_eq!(text(value), want, "bits {:#x}", value.to_bits());
            assert_eq!(text(value), format!("{value:?}"));
        }
    }

    #[test]
    fn counts_are_plain_decimal() {
        for value in [0, 7, 10, 99, 100, 4_294_967_302, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, value);
            assert_eq!(out, value.to_string());
        }
    }
}

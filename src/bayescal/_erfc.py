"""The complementary error function, vectorized: fdlibm's ``erfc``.

The ranges, rational approximations and final expressions of fdlibm's
``s_erf.c`` (5.1 93/09/24), which the C library's ``erfc``, and so Python's,
is built on, evaluated with numpy on the elements of each range. The
polynomials are nested as fdlibm nests them. The coefficients are fdlibm's,
with its hex words. ``s_erf.c`` carries this notice:

    Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.

    Developed at SunPro, a Sun Microsystems, Inc. business.
    Permission to use, copy, modify, and distribute this
    software is freely granted, provided that this notice
    is preserved.

Only ``experiment._upper_tail`` imports this module.
"""

from ._numpy import np

# erx = (float)0.84506291151
ERX = 8.45062911510467529297e-01  # 0x3FEB0AC1, 0x60000000

# erf on [0, 0.84375): x + x * P(x^2) / Q(x^2)
PP = (
    1.28379167095512558561e-01,  # 0x3FC06EBA, 0x8214DB68
    -3.25042107247001499370e-01,  # 0xBFD4CD7D, 0x691CB913
    -2.84817495755985104766e-02,  # 0xBF9D2A51, 0xDBD7194F
    -5.77027029648944159157e-03,  # 0xBF77A291, 0x236668E4
    -2.37630166566501626084e-05,  # 0xBEF8EAD6, 0x120016AC
)
QQ = (
    1.0,
    3.97917223959155352819e-01,  # 0x3FD97779, 0xCDDADC09
    6.50222499887672944485e-02,  # 0x3FB0A54C, 0x5536CEBA
    5.08130628187576562776e-03,  # 0x3F74D022, 0xC4D36B0F
    1.32494738004321644526e-04,  # 0x3F215DC9, 0x221C1A10
    -3.96022827877536812320e-06,  # 0xBED09C43, 0x42A26120
)

# erf on [0.84375, 1.25): erx + P(x - 1) / Q(x - 1)
PA = (
    -2.36211856075265944077e-03,  # 0xBF6359B8, 0xBEF77538
    4.14856118683748331666e-01,  # 0x3FDA8D00, 0xAD92B34D
    -3.72207876035701323847e-01,  # 0xBFD7D240, 0xFBB8C3F1
    3.18346619901161753674e-01,  # 0x3FD45FCA, 0x805120E4
    -1.10894694282396677476e-01,  # 0xBFBC6398, 0x3D3E28EC
    3.54783043256182359371e-02,  # 0x3FA22A36, 0x599795EB
    -2.16637559486879084300e-03,  # 0xBF61BF38, 0x0A96073F
)
QA = (
    1.0,
    1.06420880400844228286e-01,  # 0x3FBB3E66, 0x18EEE323
    5.40397917702171048937e-01,  # 0x3FE14AF0, 0x92EB6F33
    7.18286544141962662868e-02,  # 0x3FB2635C, 0xD99FE9A7
    1.26171219808761642112e-01,  # 0x3FC02660, 0xE763351F
    1.36370839120290507362e-02,  # 0x3F8BEDC2, 0x6B51DD1C
    1.19844998467991074170e-02,  # 0x3F888B54, 0x5735151D
)

# erfc on [1.25, 1/0.35): exp(-x^2 - 0.5625 + R(1/x^2) / S(1/x^2)) / x
RA = (
    -9.86494403484714822705e-03,  # 0xBF843412, 0x600D6435
    -6.93858572707181764372e-01,  # 0xBFE63416, 0xE4BA7360
    -1.05586262253232909814e01,  # 0xC0251E04, 0x41B0E726
    -6.23753324503260060396e01,  # 0xC04F300A, 0xE4CBA38D
    -1.62396669462573470355e02,  # 0xC0644CB1, 0x84282266
    -1.84605092906711035994e02,  # 0xC067135C, 0xEBCCABB2
    -8.12874355063065934246e01,  # 0xC0545265, 0x57E4D2F2
    -9.81432934416914548592e00,  # 0xC023A0EF, 0xC69AC25C
)
SA = (
    1.0,
    1.96512716674392571292e01,  # 0x4033A6B9, 0xBD707687
    1.37657754143519042600e02,  # 0x4061350C, 0x526AE721
    4.34565877475229228821e02,  # 0x407B290D, 0xD58A1A71
    6.45387271733267880336e02,  # 0x40842B19, 0x21EC2868
    4.29008140027567833386e02,  # 0x407AD021, 0x57700314
    1.08635005541779435134e02,  # 0x405B28A3, 0xEE48AE2C
    6.57024977031928170135e00,  # 0x401A47EF, 0x8E484A93
    -6.04244152148580987438e-02,  # 0xBFAEEFF2, 0xEE749A62
)

# erfc on [1/0.35, 28), the same form
RB = (
    -9.86494292470009928597e-03,  # 0xBF843412, 0x39E86F4A
    -7.99283237680523006574e-01,  # 0xBFE993BA, 0x70C285DE
    -1.77579549177547519889e01,  # 0xC031C209, 0x555F995A
    -1.60636384855821916062e02,  # 0xC064145D, 0x43C5ED98
    -6.37566443368389627722e02,  # 0xC083EC88, 0x1375F228
    -1.02509513161107724954e03,  # 0xC0900461, 0x6A2E5992
    -4.83519191608651397019e02,  # 0xC07E384E, 0x9BDC383F
)
SB = (
    1.0,
    3.03380607434824582924e01,  # 0x403E568B, 0x261D5190
    3.25792512996573918826e02,  # 0x40745CAE, 0x221B9F0A
    1.53672958608443695994e03,  # 0x409802EB, 0x189D5118
    3.19985821950859553908e03,  # 0x40A8FFB7, 0x688C246A
    2.55305040643316442583e03,  # 0x40A3F219, 0xCEDF3BE6
    4.74528541206955367215e02,  # 0x407DA874, 0xE79FE763
    -2.24409524465858183362e01,  # 0xC03670E2, 0x42712D62
)

#: fdlibm tests the high word of x against 0x4006DB6D for 1/0.35, so the
#: boundary is that word with a zero low word: 2.8571414947509766.
ONE_OVER_035 = float(np.array(0x4006DB6D_00000000, np.uint64).view(np.float64))


def _poly(s, coeffs):
    """c0 + s (c1 + s (c2 + ...)), nested from the last coefficient as in C."""
    acc = s * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= s
    acc += coeffs[0]
    return acc


def _near(x):
    """erfc on [0, 0.84375)."""
    square = x * x
    y = _poly(square, PP) / _poly(square, QQ)
    return np.where(x < 0.25, 1.0 - (x + x * y), 0.5 - (x * y + (x - 0.5)))


def _unit(x):
    """erfc on [0.84375, 1.25)."""
    s = x - 1.0
    return (1.0 - ERX) - _poly(s, PA) / _poly(s, QA)


def _far(x, r, s):
    """erfc on [1.25, 28) with the rational approximation R / S. The
    exponent splits at z, x with its low word zeroed, so z * z is exact."""
    inv = 1.0 / (x * x)
    ratio = _poly(inv, r) / _poly(inv, s)
    z = (x.view(np.uint64) & np.uint64(0xFFFFFFFF_00000000)).view(np.float64)
    return np.exp(-z * z - 0.5625) * np.exp((z - x) * (z + x) + ratio) / x


#: [low, high) and the evaluation of each range; erfc underflows to 0 past 28.
_RANGES = (
    (0.0, 0.84375, _near),
    (0.84375, 1.25, _unit),
    (1.25, ONE_OVER_035, lambda x: _far(x, RA, SA)),
    (ONE_OVER_035, 28.0, lambda x: _far(x, RB, SB)),
)


def erfc(x: np.ndarray) -> np.ndarray:
    """erfc at each element of a 1-D float64 array of x >= 0; NaN stays NaN.

    Each range is evaluated on the elements that fall in it, gathered into
    a contiguous array, so an element's value does not depend on the others.
    """
    out = np.where(np.isnan(x), np.nan, 0.0)
    for low, high, evaluate in _RANGES:
        inside = np.flatnonzero((x >= low) & (x < high))
        out[inside] = evaluate(x[inside])
    return out

"""numpy's ziggurat normal sampler, as tables for replaying it from raw words.

``Generator.standard_normal()`` reads one 64-bit word ``w`` and, 99 %
of the time, returns from its fast path, which depends on nothing but
the word and two 256-entry tables::

    idx = w & 0xff;  r = w >> 8;  rabs = (r >> 1) & (2**52 - 1)
    x = rabs * WI[idx]            (negated when r & 1)
    accepted iff rabs < KI[idx]

A rejected word sends numpy into its slow path, which reads more
words; the replay in :mod:`repro.channel.observation` hands those
back to numpy itself.

The tables below were derived from the installed numpy with crafted
words: MT19937's output tempering is invertible, so a ``Generator``
over an ``MT19937`` with a crafted key returns the normal of any chosen
word, and reports through its key position how many words it read.

``python -m repro.channel.ziggurat`` prints the tables derived from
the installed numpy, as literals; ``--check`` verifies the committed
ones against it with 768 crafted draws and exits 1 naming the first
entry that differs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["WI", "KI", "normal_of_word", "derive_tables", "check_tables", "main"]

#: Bits of ``rabs``: a word's bits 9 to 60.
RABS_BITS = 52

#: ``x = rabs * WI[idx]`` on the fast path.
WI: Tuple[float, ...] = (
    8.683627060801306e-16, 4.779330175727737e-17,
    6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16,
    1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16,
    1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16,
    1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16,
    1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16,
    1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16,
    1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16,
    2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16,
    2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16,
    2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16,
    2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16,
    2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16,
    2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16,
    2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16,
    2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16,
    2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16,
    2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16,
    3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16,
    3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16,
    3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16,
    3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16,
    3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16,
    3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16,
    3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16,
    3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16,
    3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16,
    3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16,
    4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16,
    4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16,
    4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16,
    4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16,
    4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16,
    4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16,
    4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16,
    4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16,
    5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16,
    5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16,
    5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16,
    5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16,
    5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16,
    6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16,
    6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16,
    7.658936370805573e-16, 8.113849337656484e-16,
)

#: The fast path accepts ``rabs < KI[idx]``; ``KI[1]`` is 0.
KI: Tuple[int, ...] = (
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8,
    0x000da354fabd8142, 0x000e51f67ec1eeea, 0x000eb255e9d3f77e,
    0x000eef4b817ecab9, 0x000f19470afa44aa, 0x000f37ed61ffcb18,
    0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de,
    0x000f9724c74dd0da, 0x000f9da907dbf509, 0x000fa360f581fa74,
    0x000fa86fde5b4bf8, 0x000facf160d354dc, 0x000fb0fb6718b90f,
    0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248,
    0x000fc4a67ae25bd1, 0x000fc6a2977aee31, 0x000fc87aa92896a4,
    0x000fca325e4bde85, 0x000fcbcce902231a, 0x000fcd4d12f839c4,
    0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478,
    0x000fd598b8920f53, 0x000fd689c08e99ec, 0x000fd76ea9c8e832,
    0x000fd848547b08e8, 0x000fd9178bad2c8c, 0x000fd9dd07a7add2,
    0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90,
    0x000fde6364369f64, 0x000fdeee708d514e, 0x000fdf7401a6b42e,
    0x000fdff46599ed40, 0x000fe06fe4bc24f2, 0x000fe0e6c225a258,
    0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a,
    0x000fe3b799d0002a, 0x000fe410e99ead7f, 0x000fe46746d47734,
    0x000fe4bad34c095c, 0x000fe50baed29524, 0x000fe559f74ebc78,
    0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2,
    0x000fe73e5900a702, 0x000fe77b823e9e39, 0x000fe7b6e37070a2,
    0x000fe7f08d774243, 0x000fe8289053f08c, 0x000fe85efb35173a,
    0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2,
    0x000fe9b3ac714866, 0x000fe9df2694b6d5, 0x000fea0973abe67c,
    0x000fea329cf166a4, 0x000fea5aab32952c, 0x000fea81a6d5741a,
    0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4,
    0x000feb76f4e284fa, 0x000feb965fe62014, 0x000febb4f4cf9d7c,
    0x000febd2b8f449d0, 0x000febefb16e2e3e, 0x000fec0be31ebde8,
    0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12,
    0x000fecbcf0c427fe, 0x000fecd38454fb15, 0x000fece97488c8b3,
    0x000fecfec47f91b7, 0x000fed1377358528, 0x000fed278f844903,
    0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8,
    0x000feda42b85b704, 0x000fedb3c8746ab4, 0x000fedc2df416652,
    0x000fedd171a46e52, 0x000feddf813c8ad3, 0x000feded0f909980,
    0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc,
    0x000fee3e3db89b3c, 0x000fee47ee2982f4, 0x000fee51271db086,
    0x000fee59e9407f41, 0x000fee623528b42e, 0x000fee6a0b5897f1,
    0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851,
    0x000fee94207e25da, 0x000fee9851a829ea, 0x000fee9c0e13485c,
    0x000fee9f557273f4, 0x000feea22762ccae, 0x000feea4836b42ac,
    0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e,
    0x000feea7e7897654, 0x000feea678481d24, 0x000feea48aa29e83,
    0x000feea21d22e4da, 0x000fee9f2e352024, 0x000fee9bbc26af2e,
    0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888,
    0x000fee749bff37ff, 0x000fee6cc3a9bd5e, 0x000fee64529e007e,
    0x000fee5b45a32888, 0x000fee51994e57b6, 0x000fee474a0006cf,
    0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc,
    0x000fedebea76216c, 0x000feddbe422047e, 0x000fedcb0ece39d3,
    0x000fedb964042cf4, 0x000feda6dce938c9, 0x000fed937237e98d,
    0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644,
    0x000fecefda07fe34, 0x000fecd4100eb7b8, 0x000fecb708956eb4,
    0x000fec98b61230c1, 0x000fec790a0da978, 0x000fec57f50f31fe,
    0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542,
    0x000feb42d3ad1f9e, 0x000feb13b00b2d4b, 0x000feae2591a02e9,
    0x000feaaeae992257, 0x000fea788d8ee326, 0x000fea3fcffd73e5,
    0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6,
    0x000fe859e07ab1ea, 0x000fe804f690a940, 0x000fe7ab488233c0,
    0x000fe74c751f6aa5, 0x000fe6e8102aa202, 0x000fe67da0b6abd8,
    0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c,
    0x000fe2b5122fe4fe, 0x000fe20003995557, 0x000fe13c82788314,
    0x000fe068c4ee67b0, 0x000fdf82b02b71aa, 0x000fde87c57efeaa,
    0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b,
    0x000fd40149e2f012, 0x000fd1a1a7b4c7ac, 0x000fcee204761f9e,
    0x000fcba8d85e11b2, 0x000fc7d26ecd2d22, 0x000fc32b2f1e22ed,
    0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c,
    0x000f1a5a4b331c4a,
)


def _untemper(value: int) -> int:
    """The MT19937 key word whose tempered output is ``value``."""
    value ^= value >> 18
    value ^= (value << 15) & 0xEFC60000
    result = value
    for _ in range(5):
        result = value ^ ((result << 7) & 0x9D2C5680)
    value = result & 0xFFFFFFFF
    result = value
    for _ in range(3):
        result = value ^ (result >> 11)
    return result & 0xFFFFFFFF


_FILLER = np.random.MT19937(0).state["state"]["key"]


def normal_of_word(word: int) -> Tuple[float, int]:
    """``standard_normal()`` of a generator whose next words are ``word`` then 0.

    Returns the normal and the number of 64-bit words numpy read for
    it.  The words after the zero are an arbitrary fixed filler.
    """
    key = _FILLER.copy()
    key[:4] = [_untemper(word >> 32), _untemper(word & 0xFFFFFFFF), 0, 0]  # high half first
    bit_generator = np.random.MT19937(0)
    bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    value = float(np.random.Generator(bit_generator).standard_normal())
    return value, bit_generator.state["state"]["pos"] // 2


def crafted_word(idx: int, rabs: int) -> int:
    """The (positive) word that decodes to table row ``idx`` and magnitude ``rabs``."""
    return (rabs << 9) | idx


def _wi_rabs(ki: int) -> int:
    """A power-of-two ``rabs`` at which a row's ``WI`` shows exactly.

    The largest power of two the fast path accepts; for a row with no
    accepted ``rabs`` (``KI[1] = 0``), 1, which the slow path's wedge
    test accepts after the zero word that follows.
    """
    return 1 << (ki - 1).bit_length() - 1 if ki > 1 else 1


def _one_word(idx: int, rabs: int) -> bool:
    return normal_of_word(crafted_word(idx, rabs))[1] == 1


def derive_tables() -> Tuple[List[float], List[int]]:
    """``(WI, KI)`` as the installed numpy computes them."""
    wi: List[float] = []
    ki: List[int] = []
    for idx in range(256):
        low, high = 0, 1 << RABS_BITS  # smallest rabs that takes > 1 word
        while low < high:
            middle = (low + high) // 2
            if _one_word(idx, middle):
                low = middle + 1
            else:
                high = middle
        ki.append(low)
        rabs = _wi_rabs(low)
        wi.append(normal_of_word(crafted_word(idx, rabs))[0] / rabs)
    return wi, ki


def check_tables(
    wi: Sequence[float] = WI, ki: Sequence[int] = KI
) -> Optional[str]:
    """The first table entry the installed numpy disagrees with, or None.

    Three crafted draws per row: ``WI`` at a power-of-two ``rabs``,
    ``rabs = KI - 1`` read as one word and ``rabs = KI`` as more.
    """
    for idx in range(256):
        rabs = _wi_rabs(ki[idx])
        value = normal_of_word(crafted_word(idx, rabs))[0]
        if value != rabs * wi[idx]:
            return f"WI[{idx}] = {wi[idx]!r}, numpy gives {value / rabs!r}"
        boundary_ok = (ki[idx] == 0 or _one_word(idx, ki[idx] - 1)) and (
            ki[idx] == 1 << RABS_BITS or not _one_word(idx, ki[idx])
        )
        if not boundary_ok:
            return f"KI[{idx}] = {ki[idx]:#018x}, numpy gives {derive_tables()[1][idx]:#018x}"
    return None


def _format(wi: Sequence[float], ki: Sequence[int]) -> str:
    lines = ["WI = ("]
    for start in range(0, 256, 2):
        lines.append("    " + " ".join(f"{value!r}," for value in wi[start : start + 2]))
    lines += [")", "", "KI = ("]
    for start in range(0, 256, 3):
        lines.append("    " + " ".join(f"{value:#018x}," for value in ki[start : start + 3]))
    lines.append(")")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.channel.ziggurat", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed tables against the installed numpy (exit 1 on a mismatch)",
    )
    args = parser.parse_args(argv)
    if args.check:
        mismatch = check_tables()
        if mismatch is not None:
            print(f"ziggurat tables differ from numpy {np.__version__}: {mismatch}")
            return 1
        print(f"ziggurat tables match numpy {np.__version__}")
        return 0
    print(_format(*derive_tables()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
